"""Table 2 — MILP solver runtime per benchmark.

Measures, for MILP-base and MILP-map, the solver wall time (excluding cut
enumeration and model construction, exactly as the paper's caption states)
plus the model sizes that explain the gap ("the runtime scaled primarily
with the number of unique constraints", Sec. 4.3).

Measurements come from the flow's trace spans (``cut-enum`` /
``milp-build`` / ``solve``) rather than ad-hoc timers, so Table 2 reports
exactly what :func:`repro.experiments.run_flow` recorded — including when
the result is replayed from the on-disk cache, where the *original* solve
time is reported instead of a meaningless cache-read time. Like Table 1,
the per-design tasks run through :func:`repro.runtime.run_parallel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.config import SchedulerConfig
from ..runtime.cache import FlowCache
from ..runtime.parallel import run_parallel, task_seed
from ..runtime.trace import Tracer
from ..tech.device import XC7, Device
from ..designs.registry import BENCHMARKS
from ..errors import ExperimentError
from .flows import run_flow
from .reporting import render_table

__all__ = ["Table2Row", "Table2Result", "run_table2", "format_table2"]


@dataclass
class Table2Row:
    """Solver-runtime measurements for one design."""

    design: str
    num_ops: int
    base_seconds: float
    map_seconds: float
    base_constraints: int
    map_constraints: int
    base_optimal: bool
    map_optimal: bool
    enumeration_cuts: int = 0
    #: Traces of the two flows (cached spans marked so).
    base_trace: Tracer | None = None
    map_trace: Tracer | None = None


@dataclass
class Table2Result:
    config: SchedulerConfig
    device: Device
    rows: list[Table2Row] = field(default_factory=list)


@dataclass(frozen=True)
class _Table2Task:
    design: str
    device: Device
    config: SchedulerConfig
    cache_dir: str | None


def _milp_measurements(trace: Tracer, schedule) -> tuple[float, int, int, bool]:
    """(solve seconds, constraints, cuts, optimal) from a flow's spans.

    Uses the *last* spans — the ones belonging to the attempt that
    produced the returned schedule (earlier spans may be a failed
    narrowed-graph attempt or an infeasible-horizon retry).
    """
    build = trace.last("milp-build")
    enum = trace.last("cut-enum")
    constraints = int(build.meta.get("constraints", 0)) if build else 0
    cuts = int(enum.meta.get("cuts", 0)) if enum else 0
    return schedule.solve_seconds, constraints, cuts, schedule.optimal


def _run_table2_task(task: _Table2Task) -> Table2Row:
    """Worker: both MILP flows for one design, measured via their traces."""
    random.seed(task_seed(task.design, "table2"))
    spec = BENCHMARKS[task.design]
    cache = FlowCache(task.cache_dir) if task.cache_dir else None
    num_ops = spec.build().num_operations
    base = run_flow(spec.build(), "milp-base", task.device, task.config,
                    design=task.design, cache=cache)
    mapped = run_flow(spec.build(), "milp-map", task.device, task.config,
                      design=task.design, cache=cache)
    base_seconds, base_cons, _, base_opt = \
        _milp_measurements(base.trace, base.schedule)
    map_seconds, map_cons, map_cuts, map_opt = \
        _milp_measurements(mapped.trace, mapped.schedule)
    return Table2Row(
        design=task.design,
        num_ops=num_ops,
        base_seconds=base_seconds,
        map_seconds=map_seconds,
        base_constraints=base_cons,
        map_constraints=map_cons,
        base_optimal=base_opt,
        map_optimal=map_opt,
        enumeration_cuts=map_cuts,
        base_trace=base.trace,
        map_trace=mapped.trace,
    )


def run_table2(designs: list[str] | None = None, device: Device = XC7,
               config: SchedulerConfig | None = None,
               progress=None,
               jobs: int | None = 1,
               cache_dir: str | None = None) -> Table2Result:
    """Run both MILPs per design and collect solve times and model sizes."""
    config = config or SchedulerConfig(ii=1, tcp=10.0)
    names = designs or list(BENCHMARKS)
    for name in names:
        if name not in BENCHMARKS:
            raise ExperimentError(f"unknown design {name!r}")
    tasks = [_Table2Task(design=name, device=device, config=config,
                         cache_dir=cache_dir) for name in names]
    rows = run_parallel(
        tasks, _run_table2_task, jobs=jobs,
        progress=(lambda t: progress(t.design)) if progress else None,
    )
    return Table2Result(config=config, device=device, rows=rows)


def format_table2(result: Table2Result) -> str:
    """Render in the paper's Table 2 layout (plus model-size columns)."""
    headers = ["Design", "Ops", "Cuts", "MILP-base (s)", "MILP-map (s)",
               "base cons", "map cons", "proved optimal"]
    rows = []
    total_ops = total_base = total_map = 0.0
    for r in result.rows:
        total_ops += r.num_ops
        total_base += r.base_seconds
        total_map += r.map_seconds
        opt = ("both" if r.base_optimal and r.map_optimal
               else "base" if r.base_optimal
               else "map" if r.map_optimal else "neither")
        rows.append([r.design, r.num_ops, r.enumeration_cuts,
                     f"{r.base_seconds:.1f}", f"{r.map_seconds:.1f}",
                     r.base_constraints, r.map_constraints, opt])
    n = max(1, len(result.rows))
    rows.append(["Mean", f"{total_ops / n:.1f}", "",
                 f"{total_base / n:.1f}", f"{total_map / n:.1f}", "", "", ""])
    return render_table(
        headers, rows,
        title=("Table 2: MILP solver runtime (cut enumeration and model "
               f"construction excluded; time cap {result.config.time_limit}s)"),
    )
