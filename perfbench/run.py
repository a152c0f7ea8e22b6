"""Command line of the whole-job benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
per-run result file (environment stamp, per-pass times, counters) and, for
a traced run, a spans file are written under ``.perfbench-out/``. Exit code
1 means a job failed the correctness gate; 2 means the benchmark could not
run (e.g. the package sources are missing).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Whole jobs run serially in this one process.
    os.environ["REPRO_JOBS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.harness import main_run
        from perfbench.workloads import get_workload
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    return main_run(get_workload(args.workload), args.seed, args.seconds,
                    bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
