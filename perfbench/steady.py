"""Run a workload over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/steady.py --workload table1 --seeds 1-10 --seconds 20

Each seed is one ``perfbench/run.py`` invocation. For every end-to-end
metric it prints the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, which BENCHMARK.json bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if result is None:
            print(f"seed {seed}: exit {proc.returncode}, no result",
                  file=sys.stderr)
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        print(f"seed {seed}: exit {proc.returncode} in {elapsed:.1f}s, "
              f"correct={result['correct']} " + " ".join(
                  f"{k}={m['value']:.6g}"
                  for k, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        s = spread(vals) if len(vals) > 1 else 0.0
        bound = bounds[name]
        flag = "" if s < bound / 3 else "  <-- above bound/3"
        print(f"{name:34s} median {statistics.median(vals):.6g}  "
              f"spread {s:.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
