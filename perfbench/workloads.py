"""The benchmark's workloads: one fixed job list each.

A job is one ``run_flow`` call: a design from the registry, a method and a
scheduler config. The job lists are fixed so every seed measures the same
work; the seed only draws the stimulus of the replay check
(``harness.py``), so every seed must report the same area and counts.
Why each workload exists, which layers it stresses and bypasses, and what
it leaves out are recorded next to it and in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SchedulerConfig
from repro.designs import BENCHMARKS, FULLSIZE

__all__ = ["Job", "Workload", "WORKLOADS", "get_workload"]

#: The paper protocol (Sec. 4): II=1, Tcp=10 ns, alpha=beta=0.5, HiGHS.
HIGHS = SchedulerConfig()
BNB = SchedulerConfig(backend="bnb")
PARTITIONED = SchedulerConfig(partition=True)


@dataclass(frozen=True)
class Job:
    """One whole flow: ``run_flow(build(design), method, config=config)``."""

    design: str
    method: str
    config: SchedulerConfig = HIGHS

    @property
    def id(self) -> str:
        return f"{self.design}/{self.method}/{self.config.backend}" + (
            "/partition" if self.config.partition else "")

    @property
    def spec(self):
        return BENCHMARKS.get(self.design) or FULLSIZE[self.design]


@dataclass(frozen=True)
class Workload:
    """A named job list; ``why`` is the line BENCHMARK.json carries."""

    name: str
    why: str
    jobs: tuple[Job, ...]
    #: ``"flow"``: every job is computed from scratch in the timed pass.
    #: ``"signoff"``: results are computed once and stored in a FlowCache
    #: during set-up; the timed pass re-opens them with ``validate=True``.
    mode: str = "flow"


def _grid(designs, methods, config=HIGHS, skip=()):
    return tuple(Job(d, m, config) for d in designs for m in methods
                 if (d, m) not in skip)


_NINE = tuple(BENCHMARKS)

# Job lists are cut to keep one run near 30 s; README.md lists what each
# workload stresses, bypasses and leaves out, with the measured shares.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="table1",
        why="the paper's Table 1 flows on HiGHS, no cache: the mapping-aware "
            "MILP area claim, with cut enumeration, formulation and the "
            "HiGHS solve on the blocking path",
        # Left out for run length: RS milp-map (~24 s), CORDIC milp-map
        # (~10 s), GFMUL milp-map (~2.7 s), RS milp-base (~3 s).
        jobs=_grid(_NINE, ("hls-tool", "milp-base", "milp-map"),
                   skip=(("RS", "milp-base"), ("RS", "milp-map"),
                         ("CORDIC", "milp-map"), ("GFMUL", "milp-map"))),
    ),
    Workload(
        name="bnb",
        why="the pure-Python branch-and-bound backend: bnb nodes, LPs and "
            "presolve dominate and HiGHS does no MIP work",
        # Left out: RS milp-base (~74 s), AES milp-base (~9 s), DR and MT
        # milp-map (~6 s, ~12 s) for run length; CLZ, XORR, GFMUL and
        # CORDIC milp-map hit the 120 s cap on bnb.
        jobs=_grid(("CLZ", "XORR", "GFMUL", "CORDIC", "MT", "DR", "GSM"),
                   ("milp-base",), BNB)
        + _grid(("AES",), ("milp-map",), BNB),
    ),
    Workload(
        name="fullsize",
        why="paper-scale XORR512/XORR1251 through the subgraph partitioner: "
            "cut enumeration, heuristic, formulation build and presolve "
            "dominate, the solve is small",
        # Left out: GFMUL64 (~168 s) and CORDIC48 (~151 s) exceed a run.
        jobs=_grid(("XORR512", "XORR1251"), ("milp-map",), PARTITIONED),
    ),
    Workload(
        name="signoff",
        why="cached results re-opened with validate=True on a fresh cache "
            "copy: fingerprint, cache load, four equivalence proofs and RTL "
            "emission, no solving",
        # Left out for run length: milp-map results, RS milp-base (~3 s to
        # compute), DR milp-base (~3.4 s to prove). Every design keeps its
        # hls-tool proof, DR's SAT work included.
        jobs=_grid(_NINE, ("hls-tool", "milp-base"),
                   skip=(("RS", "milp-base"), ("DR", "milp-base"))),
        mode="signoff",
    ),
)}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of "
            f"{', '.join(WORKLOADS)}") from None
