"""Work the harness runs in a fresh process.

    python3 perfbench/child.py setup ARGS_PICKLE SCRATCH_DIR
    python3 perfbench/child.py prep ARGS_PICKLE OUT_PICKLE

``ARGS_PICKLE`` holds ``(workload, prep)``.

``setup`` times one ``harness.setup`` and prints ``{"seconds": ...,
"wall": ...}`` as the last stdout line: its time at reference machine
speed (``speed.py``) and its wall time. The harness starts it once per
``setup_s`` sample, so every sample pays what only the first set-up of a
process pays: the lazy load of the HiGHS backend and its first solve. The package imports
``run.py`` makes before its clock starts are made here before the clock
starts too.

``prep`` computes the results a ``signoff`` set-up stores and writes
``(results, solve tally, seconds)`` to ``OUT_PICKLE``. Its MILP solves
run here, so the memory they use is not counted in the harness process's
``peak_rss_mb``.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    command, args_file, target = argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, speed

    workload, prep = pickle.loads(Path(args_file).read_bytes())
    if command == "prep":
        Path(target).write_bytes(pickle.dumps(harness.prepare(workload)))
        return 0
    harness.quiesce()
    # A set-up lasts well under a second: sample its speed more densely
    # than a pass's, so the scaling averages over enough samples.
    with speed.SpeedGauge(interval=speed.SHORT_INTERVAL) as gauge:
        harness.setup(workload, prep, target)
    print(json.dumps({"seconds": gauge.scaled, "wall": gauge.wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
