"""Per-layer tracing from outside the program.

:func:`traced` wraps the public entry point of every pipeline layer, for
the traced run only, and restores the originals on exit. Each call records
a span (name, start, end, parent span, job id) in memory; a small observer
per entry point reads work counters off the call's arguments and result.
Nothing inside ``src/`` is touched.

A function imported by name into another module (``mapsched`` binds
``presolve`` as ``run_presolve``, ``flows`` binds ``verify_schedule``,
``evaluate``, ``map_schedule`` and ``flow_fingerprint``) is wrapped at
every binding: :func:`traced` patches each attribute of every loaded
``repro`` module that *is* the original function, so the caller's own
binding fires. Methods are wrapped on their defining class.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["ENTRY_POINTS", "Recorder", "Span", "traced", "wrapped_bindings",
           "import_all", "layer_metrics", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job}


@dataclass
class Recorder:
    """Spans and work counters of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    job: str | None = None
    _stack: list[int] = field(default_factory=list)
    _next: int = 0
    #: The last enumeration's cut sets and candidate count, until pruned.
    _enumerated: tuple | None = None


# -- work-counter observers: (recorder, args, kwargs, result) -> None --------

def _nnz(model) -> int:
    return sum(len(c.expr.coeffs) for c in model.constraints)


def _on_solve(rec, args, kwargs, sol) -> None:
    from repro.milp.model import SolveStatus

    model = args[0]
    backend = kwargs.get("backend", args[1] if len(args) > 1 else "scipy")
    c = rec.counters
    c["milp.solve_calls"] += 1
    if sol.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
        c["milp.proven"] += 1
    if sol.status in (SolveStatus.FEASIBLE, SolveStatus.NO_INCUMBENT):
        c["milp.capped"] += 1
    c[f"milp.nodes.{'bnb' if backend == 'bnb' else 'highs'}"] += \
        int(sol.stats.get("nodes", 0))
    c["milp.lps"] += int(sol.stats.get("lps", 0))
    # mapsched seeds bnb through ``warm_start=`` and HiGHS through a
    # trailing ``warm_cutoff`` row on the solved model.
    if kwargs.get("warm_start") is not None or (
            model.constraints
            and model.constraints[-1].name == "warm_cutoff"):
        c["milp.warm_started"] += 1


def _on_build(rec, args, kwargs, model) -> None:
    c = rec.counters
    c["core.formulation.rows"] += model.num_constraints
    c["core.formulation.cols"] += model.num_vars
    c["core.formulation.nnz"] += _nnz(model)


def _on_presolve(rec, args, kwargs, out) -> None:
    reduced, post = out
    c = rec.counters
    if post.status is not None:
        c["milp.presolve.infeasible_proofs"] += 1
        return
    c["milp.presolve.rows_after"] += reduced.num_constraints
    c["milp.presolve.nnz_after"] += _nnz(reduced)


def _on_enumerate(rec, args, kwargs, cuts) -> None:
    candidates = args[0].stats.candidates_generated
    rec.counters["cuts.candidates"] += candidates
    # Only mapsched prunes, right after its own enumeration; the stage
    # mapper's and the heuristic's cut sets are never pruned.
    rec._enumerated = (cuts, candidates)


def _on_prune(rec, args, kwargs, out) -> None:
    cuts, candidates = rec._enumerated or (None, 0)
    if args[1] is cuts:
        rec.counters["cuts.pruned_candidates"] += candidates
    rec._enumerated = None
    rec.counters["cuts.kept"] += sum(
        not cut.is_unit for cs in out[0].values() for cut in cs.selectable)


def _on_partition(rec, args, kwargs, chain) -> None:
    rec.counters["partition.subgraphs"] += len(chain)


def _on_stitch(rec, args, kwargs, out) -> None:
    rec.counters["partition.boundary_bits"] += out[1].total_boundary_bits


def _on_validate(rec, args, kwargs, report) -> None:
    c = rec.counters
    for verdict in report.stages:
        c[f"analysis.equiv.{verdict.stage}_s"] += verdict.seconds
        c["analysis.equiv.goals"] += verdict.goals
        c["analysis.equiv.sat_conflicts"] += verdict.conflicts


def _on_load(rec, args, kwargs, hit) -> None:
    rec.counters["runtime.cache.loads"] += 1
    rec.counters["runtime.cache.hits"] += hit is not None


#: (layer, module, attribute, observer). The layer names the per-layer
#: ``<layer>_s`` self-time metric; several entry points may share one.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("analysis.lint", "repro.analysis.linter", "lint_graph", None),
    ("ir.narrow", "repro.ir.transforms", "narrow_graph", None),
    ("cuts.enum", "repro.cuts.enumerate", "CutEnumerator.run",
     _on_enumerate),
    ("cuts.enum", "repro.cuts.enumerate", "prune_cut_sets", _on_prune),
    ("core.formulation.build", "repro.core.formulation",
     "MappingAwareFormulation.build", _on_build),
    ("milp.presolve", "repro.milp.presolve", "presolve", _on_presolve),
    ("core.heuristic.warm", "repro.core.heuristic",
     "MappingAwareHeuristicScheduler.schedule", None),
    ("milp.solve", "repro.milp.model", "Model.solve", _on_solve),
    ("mapping.map", "repro.mapping.stage_mapper", "map_schedule", None),
    ("hls.schedule", "repro.hls.tool", "CommercialHLSProxy.run", None),
    ("core.verify", "repro.core.verify", "verify_schedule", None),
    ("hw.evaluate", "repro.hw.cost", "evaluate", None),
    ("partition.partition", "repro.partition.partitioner",
     "partition_graph", _on_partition),
    ("partition.extract", "repro.partition.extract", "extract_subgraph",
     None),
    ("partition.subgraph_solve", "repro.partition.solve",
     "solve_subgraph_task", None),
    ("partition.stitch", "repro.partition.stitch", "stitch_schedules",
     _on_stitch),
    ("analysis.equiv", "repro.analysis.equiv.validate", "validate_flow",
     _on_validate),
    ("rtl.emit", "repro.rtl.verilog", "emit_verilog", None),
    ("runtime.cache.load", "repro.runtime.cache", "FlowCache.load", _on_load),
    ("runtime.cache.store", "repro.runtime.cache", "FlowCache.store", None),
    ("runtime.cache.load", "repro.runtime.cache", "FlowCache.load_equiv",
     None),
    ("runtime.cache.store", "repro.runtime.cache", "FlowCache.store_equiv",
     None),
    ("runtime.fingerprint", "repro.runtime.fingerprint", "flow_fingerprint",
     None),
)

_MARK = "__perfbench_span__"


def import_all() -> None:
    """Import every ``repro`` module, so no module binds a wrapper later.

    A module first imported while the wrappers are installed would copy a
    wrapper into its namespace and keep it after :func:`traced` restores
    the originals.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _wrap(rec: Recorder, entry: str, fn: Callable,
          observe: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec._next
        rec._next += 1
        parent = rec._stack[-1] if rec._stack else None
        rec._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rec._stack.pop()
            rec.spans.append(Span(sid, entry, start, end, parent, rec.job))
            rec.calls[entry] += 1
        if observe is not None:
            observe(rec, args, kwargs, result)
        return result

    setattr(wrapper, _MARK, entry)
    return wrapper


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "repro" or name.startswith("repro."))]


def wrapped_bindings() -> list[str]:
    """Every ``module.attr`` / ``Class.attr`` currently holding a wrapper."""
    found = []
    for module in _repro_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers on every entry point; restore them on exit."""
    import_all()
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, module_name, path, observe in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, _wrap(rec, path, orig, observe))
                continue
            orig = getattr(module, path)
            wrapper = _wrap(rec, path, orig, observe)
            for mod in _repro_modules():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        yield rec
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


#: Entry point -> layer, derived from :data:`ENTRY_POINTS`.
LAYER_OF = {path: layer for layer, _, path, _ in ENTRY_POINTS}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time (span duration minus its children's)."""
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    out: Counter = Counter()
    for s in spans:
        out[LAYER_OF[s.name]] += s.seconds - child[s.id]
    return dict(out)


def layer_metrics(rec: Recorder, traced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass of ``traced_wall`` seconds.

    ``hw.*``, ``traced_s`` and ``trace_overhead_s`` need the pass results
    or the untraced passes and are added by ``harness.per_layer``.
    """
    selfs = self_times(rec.spans)
    c = rec.counters
    top = sum(s.seconds for s in rec.spans if s.parent is None)
    out = {f"{layer}_s": selfs.get(layer, 0.0)
           for layer in dict.fromkeys(LAYER_OF.values())}
    out.update({
        "milp.solve_calls": c["milp.solve_calls"],
        "milp.nodes": c["milp.nodes.highs"] + c["milp.nodes.bnb"],
        "milp.nodes.bnb": c["milp.nodes.bnb"],
        "milp.nodes.highs": c["milp.nodes.highs"],
        "milp.lps": c["milp.lps"],
        "milp.capped": c["milp.capped"],
        "core.formulation.rows": c["core.formulation.rows"],
        "core.formulation.cols": c["core.formulation.cols"],
        "core.formulation.nnz": c["core.formulation.nnz"],
        "milp.presolve.rows_after": c["milp.presolve.rows_after"],
        "milp.presolve.nnz_after": c["milp.presolve.nnz_after"],
        "milp.presolve.infeasible_proofs":
            c["milp.presolve.infeasible_proofs"],
        "cuts.candidates": c["cuts.candidates"],
        "cuts.kept": c["cuts.kept"],
        "cuts.kept_ratio": c["cuts.kept"] / c["cuts.pruned_candidates"]
        if c["cuts.pruned_candidates"] else 0.0,
        "core.heuristic.warm_used_ratio":
            c["milp.warm_started"] / c["milp.solve_calls"]
            if c["milp.solve_calls"] else 0.0,
        "partition.subgraphs": c["partition.subgraphs"],
        "partition.boundary_bits": c["partition.boundary_bits"],
        "analysis.equiv.goals": c["analysis.equiv.goals"],
        "analysis.equiv.sat_conflicts": c["analysis.equiv.sat_conflicts"],
        "runtime.cache.hit_ratio":
            c["runtime.cache.hits"] / c["runtime.cache.loads"]
            if c["runtime.cache.loads"] else 0.0,
        "untraced_s": traced_wall - top,
    })
    for stage in ("narrow", "cover", "pipeline", "rtl"):
        out[f"analysis.equiv.{stage}_s"] = c[f"analysis.equiv.{stage}_s"]
    return out


#: Counters that must repeat exactly across two traced runs of one commit.
#: HiGHS node counts are excluded: on a time-capped solve they depend on
#: how far the clock let the search get.
DETERMINISTIC = (
    "cuts.candidates", "cuts.kept", "core.formulation.rows",
    "core.formulation.cols", "core.formulation.nnz",
    "milp.presolve.rows_after", "milp.presolve.nnz_after",
    "milp.presolve.infeasible_proofs", "milp.nodes.bnb", "milp.lps",
    "partition.subgraphs", "partition.boundary_bits",
    "analysis.equiv.goals",
)


@contextmanager
def solve_tally(rec: Recorder):
    """Count MILP solve outcomes without spans, for the untraced passes.

    ``proven_share`` is an end-to-end metric, so the untraced run needs the
    outcome of every ``Model.solve``; this wraps that one method with the
    same observer and records no timing.
    """
    from repro.milp.model import Model

    orig = vars(Model)["solve"]

    @functools.wraps(orig)
    def counted(*args, **kwargs):
        result = orig(*args, **kwargs)
        _on_solve(rec, args, kwargs, result)
        return result

    Model.solve = counted
    try:
        yield rec
    finally:
        Model.solve = orig
