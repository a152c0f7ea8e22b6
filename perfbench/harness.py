"""Run one workload: set-up, timed passes, correctness gate, result line.

Untraced run (``--trace 0``)::

    [signoff only] compute the job results once, in a fresh process
                                                          (not timed)
    cold set-ups, each in a fresh process, for SETUP_SHARE/2 of --seconds
    set-up for the passes                                 (not timed)
    pass, pass, ... for --seconds -> wall_s (median pass)
      (peak_rss_mb: the process's peak resident memory in the first pass)
    as many cold set-ups again -> setup_s (median of all cold set-ups)
    correctness gate                                      (not timed)

``wall_s`` and ``setup_s`` are times at reference machine speed
(``speed.py``): a shared host runs the same code up to twice as fast in
one minute as in the next, and a :class:`speed.SpeedGauge` running with
each pass and each set-up scales that out. The wall times are kept in the
result file (``raw_pass_s``, ``raw_setup_s``).

Traced run (``--trace 1``): the same set-up, then (untraced pass, traced
pass) pairs for ``--seconds``; the per-layer metrics come from the traced
passes (``layers.py``), ``trace_overhead_s`` from the pair differences.

The gate replays every job's schedule against the functional interpreter
on seeded stimulus, requires every pass to produce byte-identical
schedule/report JSON (traced and untraced alike), and on ``signoff``
requires a cache hit and every equivalence stage ``proved``. A job that
raises or misses any of these counts as failed; the command then exits 1.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.flows import run_flow
from repro.ir.serialize import schedule_to_dict
from repro.milp.model import Model
from repro.runtime.cache import FlowCache
from repro.runtime import fingerprint
from repro.sim.pipeline import replay_equivalent
from repro.tech.device import XC7

from . import layers, speed
from .workloads import Job, Workload

__all__ = ["END_TO_END", "PER_LAYER", "main_run", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
REPLAY_ITERATIONS = 12
#: Share of ``--seconds`` spent on cold set-ups, half before the passes.
SETUP_SHARE = 0.2

#: name -> unit, in report order (BENCHMARK.json lists the same names).
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "area_total": "count", "fmax_mhz_geomean": "MHz",
    "proven_share": "ratio", "ok_share": "ratio",
}
PER_LAYER = {
    "milp.solve_s": "s", "milp.solve_calls": "count", "milp.nodes": "count",
    "milp.nodes.bnb": "count", "milp.nodes.highs": "count",
    "milp.lps": "count", "milp.capped": "count",
    "core.formulation.build_s": "s", "core.formulation.rows": "count",
    "core.formulation.cols": "count", "core.formulation.nnz": "count",
    "milp.presolve_s": "s", "milp.presolve.rows_after": "count",
    "milp.presolve.nnz_after": "count",
    "milp.presolve.infeasible_proofs": "count",
    "cuts.enum_s": "s", "cuts.candidates": "count", "cuts.kept": "count",
    "cuts.kept_ratio": "ratio",
    "core.heuristic.warm_s": "s", "core.heuristic.warm_used_ratio": "ratio",
    "partition.partition_s": "s", "partition.extract_s": "s",
    "partition.subgraph_solve_s": "s", "partition.stitch_s": "s",
    "partition.subgraphs": "count", "partition.boundary_bits": "count",
    "analysis.equiv_s": "s", "analysis.equiv.narrow_s": "s",
    "analysis.equiv.cover_s": "s", "analysis.equiv.pipeline_s": "s",
    "analysis.equiv.rtl_s": "s", "analysis.equiv.goals": "count",
    "analysis.equiv.sat_conflicts": "count", "rtl.emit_s": "s",
    "runtime.cache.load_s": "s", "runtime.cache.store_s": "s",
    "runtime.cache.hit_ratio": "ratio", "runtime.fingerprint_s": "s",
    "analysis.lint_s": "s", "ir.narrow_s": "s", "mapping.map_s": "s",
    "hls.schedule_s": "s", "core.verify_s": "s", "hw.evaluate_s": "s",
    "hw.luts": "count", "hw.ffs": "count",
    "traced_s": "s", "untraced_s": "s", "trace_overhead_s": "s",
}


# -- one job execution -------------------------------------------------------

@dataclass
class Outcome:
    job: Job
    seconds: float
    result: object = None
    error: str | None = None
    canonical: str | None = None
    cached: bool = False
    equiv: dict | None = None

    def settle(self, keep: bool) -> None:
        """Record what the gate needs; drop the result unless ``keep``.

        Results of later passes are not kept, so the memory held by the
        harness (and the garbage collector's work over it) does not grow
        with the number of passes.
        """
        if self.result is None:
            return
        self.canonical = canonical(self.result)
        self.cached = self.result.cached
        if self.result.equiv is not None:
            self.equiv = {v.stage: v.status
                          for v in self.result.equiv.stages}
        if not keep:
            self.result = None


def canonical(result) -> str:
    """Schedule + report JSON without the wall-clock fields."""
    sched = schedule_to_dict(result.schedule)
    report = result.report.to_dict()
    sched.pop("solve_seconds", None)
    report.pop("solve_seconds", None)
    return json.dumps({"schedule": sched, "report": report}, sort_keys=True)


@dataclass
class Setup:
    graphs: dict
    cache_dir: str | None = None


@dataclass
class Run:
    """Everything one invocation measured."""

    workload: Workload
    seed: int
    setup_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    passes: list[list[Outcome]] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    traced_pass_s: list[float] = field(default_factory=list)
    recorders: list[layers.Recorder] = field(default_factory=list)
    tally: layers.Recorder = field(default_factory=layers.Recorder)
    setup_recorder: layers.Recorder = field(default_factory=layers.Recorder)
    prep_s: float = 0.0
    prep: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    peak_rss_scope: str = ""
    failures: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def _highs_warmup() -> None:
    model = Model("warmup")
    x = model.integer("x", 0, 3)
    y = model.binary("y")
    model.add(x + y >= 2)
    model.minimize(x * 2 + y)
    model.solve(backend="scipy")


def setup(workload: Workload, prep: dict, scratch: str) -> Setup:
    """Build the job list's graphs, warm HiGHS up and, on ``signoff``,
    store every prepared result in a fresh FlowCache under ``scratch``."""
    graphs = {job.design: job.spec.build() for job in workload.jobs}
    _highs_warmup()
    cache_dir = None
    if workload.mode == "signoff":
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        cache = FlowCache(cache_dir)
        for job in workload.jobs:
            # Through the module, so a traced set-up records the call.
            fp = fingerprint.flow_fingerprint(graphs[job.design], job.method,
                                              XC7, job.config)
            cache.store(fp, prep[job.id], design=job.design,
                        method=job.method)
    return Setup(graphs, cache_dir)


def _run_pass(workload: Workload, ready: Setup, scratch: str,
              rec: layers.Recorder | None = None, gauged: bool = False
              ) -> tuple[float, float, list[Outcome]]:
    """One pass over the job list: (seconds, wall seconds, outcomes).

    ``seconds`` is the pass at reference speed if ``gauged``, else the
    wall time. A traced pass is not gauged, so its spans hold no samples.
    """
    cache = None
    if ready.cache_dir is not None:
        # Each pass re-opens a fresh copy, so every pass proves again.
        copy = tempfile.mkdtemp(prefix="pass-", dir=scratch)
        shutil.copytree(ready.cache_dir, copy, dirs_exist_ok=True)
        cache = FlowCache(copy)
    outcomes = []
    quiesce()
    gauge = speed.SpeedGauge() if gauged else None
    start = time.perf_counter()
    with gauge or contextlib.nullcontext():
        _run_jobs(workload, ready, cache, rec, outcomes)
    wall = time.perf_counter() - start
    if gauge is None:
        return wall, wall, outcomes
    return gauge.scaled, gauge.wall, outcomes


def _run_jobs(workload: Workload, ready: Setup, cache: FlowCache | None,
              rec: layers.Recorder | None, outcomes: list[Outcome]) -> None:
    for job in workload.jobs:
        if rec is not None:
            rec.job = job.id
        t0 = time.perf_counter()
        try:
            result = run_flow(ready.graphs[job.design], job.method,
                              config=job.config, design=job.design, jobs=1,
                              cache=cache,
                              validate=True if cache is not None else None)
            outcomes.append(Outcome(job, time.perf_counter() - t0, result))
        except Exception:  # a failing job is counted, not fatal
            outcomes.append(Outcome(job, time.perf_counter() - t0,
                                    error=traceback.format_exc()))


def quiesce() -> None:
    """Collect all garbage, then move every live object out of the
    collector's generations, so objects the harness holds from earlier
    set-ups and passes are not rescanned inside the next timed region."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS count (``VmHWM``) at the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_rss(reset: bool) -> tuple[float, str]:
    """Peak resident memory in MB, and what span of the process it covers."""
    if reset:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return (int(line.split()[1]) / 1024.0,
                            "first pass (VmHWM reset before it)")
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "process start to the end of the first pass")


def _fits(elapsed: float, pass_s: list[float], seconds: float) -> bool:
    """Start another pass only if it should end within ``seconds``."""
    return elapsed + statistics.median(pass_s) <= seconds


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, scratch: str) -> Run:
    run = Run(workload, seed)
    try:
        _measure(run, seconds, trace, scratch)
    finally:
        gc.unfreeze()
    _gate(run)
    return run


def _measure(run: Run, seconds: float, trace: bool, scratch: str) -> None:
    workload = run.workload
    args_file = Path(scratch) / "args.pickle"
    if workload.mode == "signoff":
        args_file.write_bytes(pickle.dumps((workload, {})))
        out = Path(scratch) / "prep.pickle"
        _child("prep", args_file, str(out))
        run.prep, tally, run.prep_s = pickle.loads(out.read_bytes())
        run.tally.counters.update(tally)

    # Half the cold set-ups run before the passes and as many after, so
    # their median spans the run instead of one short stretch of machine
    # speed.
    args_file.write_bytes(pickle.dumps((workload, run.prep)))
    reps = _time_setups(run, args_file, scratch,
                        budget=SETUP_SHARE * seconds / 2)
    if trace:
        # Under the wrappers, so the spans file shows where set-up time
        # goes (the signoff cache fill is all stores).
        with layers.traced(run.setup_recorder):
            ready = setup(workload, run.prep, scratch)
    else:
        ready = setup(workload, run.prep, scratch)

    peak_reset = _reset_peak_rss()
    begin = time.perf_counter()
    while True:
        with layers.solve_tally(run.tally):
            at_ref, wall, outcomes = _run_pass(workload, ready, scratch,
                                               gauged=not trace)
        if not run.pass_s:
            # Read after the first pass: later passes only add the
            # harness's own bookkeeping, and their number varies.
            run.peak_rss_mb, run.peak_rss_scope = _peak_rss(peak_reset)
        _settle(run, outcomes)
        run.pass_s.append(at_ref)
        run.raw_pass_s.append(wall)
        if trace:
            rec = layers.Recorder()
            with layers.traced(rec):
                _, wall, outcomes = _run_pass(workload, ready, scratch, rec)
            _settle(run, outcomes)
            run.traced_pass_s.append(wall)
            run.recorders.append(rec)
            last = [a + b for a, b in zip(run.raw_pass_s,
                                          run.traced_pass_s)]
        else:
            last = run.raw_pass_s
        if not _fits(time.perf_counter() - begin, last, seconds):
            break
    _time_setups(run, args_file, scratch, reps=reps)


def _time_setups(run: Run, args_file: Path, scratch: str,
                 budget: float = 0.0, reps: int | None = None) -> int:
    """Time cold set-ups, each in a fresh process (``child.py setup``).

    Runs ``reps`` of them, or, without ``reps``, at least one and more
    until ``budget`` seconds of child processes have passed. Returns the
    number run.
    """
    done = 0
    t0 = time.perf_counter()
    while True:
        out = json.loads(_child("setup", args_file, scratch).splitlines()[-1])
        run.setup_s.append(out["seconds"])
        run.raw_setup_s.append(out["wall"])
        done += 1
        if done == reps or (reps is None
                            and time.perf_counter() - t0 >= budget):
            return done


def _child(command: str, args_file: Path, target: str) -> str:
    """Run ``child.py`` to its end; return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")),
         command, str(args_file), target],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {command} failed:\n{proc.stderr}")
    return proc.stdout


def prepare(workload: Workload) -> tuple[dict, dict, float]:
    """The signoff results: job id -> result, solve tally, seconds."""
    graphs = {job.design: job.spec.build() for job in workload.jobs}
    tally = layers.Recorder()
    results = {}
    t0 = time.perf_counter()
    with layers.solve_tally(tally):
        for job in workload.jobs:
            results[job.id] = run_flow(
                graphs[job.design], job.method, config=job.config,
                design=job.design, jobs=1)
    return results, dict(tally.counters), time.perf_counter() - t0


def _settle(run: Run, outcomes: list[Outcome]) -> None:
    for outcome in outcomes:
        outcome.settle(keep=not run.passes)
    run.passes.append(outcomes)


# -- correctness gate (outside the timed region) -----------------------------

def _gate(run: Run) -> None:
    workload, seed = run.workload, run.seed
    first = run.passes[0]
    reference = {o.job.id: o.canonical for o in first}
    if workload.mode == "signoff":
        reference = {job_id: canonical(result)
                     for job_id, result in run.prep.items()}

    replay_ok: dict[str, bool] = {}
    for outcome in first:
        if outcome.result is None:
            continue
        spec = outcome.job.spec
        stream = spec.input_stream(seed, REPLAY_ITERATIONS)
        replay_ok[outcome.job.id] = replay_equivalent(
            outcome.result.schedule, XC7, stream,
            env_factory=lambda: spec.make_env(seed))

    for outcome in (o for p in run.passes for o in p):
        run.attempted += 1
        why = outcome.error
        if why is None and not replay_ok.get(outcome.job.id, False):
            why = "replay mismatch against the functional interpreter"
        if why is None and outcome.canonical != reference[outcome.job.id]:
            why = "schedule/report JSON differs between passes"
        if why is None and workload.mode == "signoff":
            if not outcome.cached:
                why = "cache miss on a stored result"
            elif any(s != "proved" for s in outcome.equiv.values()):
                why = f"equivalence not proved: {outcome.equiv}"
        if why is not None:
            run.failed += 1
            run.failures.setdefault(outcome.job.id, why)


# -- metrics -----------------------------------------------------------------

def end_to_end(run: Run) -> dict[str, float]:
    first = [o for o in run.passes[0] if o.result is not None]
    reports = [o.result.report for o in first]
    tally = run.tally.counters
    return {
        "wall_s": statistics.median(run.pass_s),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
        "area_total": sum(r.luts + r.ffs for r in reports),
        "fmax_mhz_geomean": math.exp(statistics.fmean(
            math.log(1000.0 / r.cp) for r in reports)) if reports else 0.0,
        "proven_share": tally["milp.proven"] / tally["milp.solve_calls"]
        if tally["milp.solve_calls"] else 0.0,
        "ok_share": 1.0 - run.failed / run.attempted,
    }


def per_layer(run: Run) -> dict[str, float]:
    samples = [layers.layer_metrics(rec, wall)
               for rec, wall in zip(run.recorders, run.traced_pass_s)]
    out = {name: statistics.median(s.get(name, 0.0) for s in samples)
           for name in PER_LAYER}
    # The gate holds every pass to the first pass's reports.
    reports = [o.result.report for o in run.passes[0]
               if o.result is not None]
    out["hw.luts"] = sum(r.luts for r in reports)
    out["hw.ffs"] = sum(r.ffs for r in reports)
    out["traced_s"] = statistics.median(run.traced_pass_s)
    out["trace_overhead_s"] = statistics.median(
        t - u for t, u in zip(run.traced_pass_s, run.pass_s))
    return out


def counters_repeat(run: Run) -> bool | None:
    """Whether the deterministic counters agree across traced passes."""
    if len(run.recorders) < 2:
        return None
    views = [{k: layers.layer_metrics(r, 0.0)[k]
              for k in layers.DETERMINISTIC} for r in run.recorders]
    return all(v == views[0] for v in views[1:])


# -- result files ------------------------------------------------------------

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(seed: int, spans_file: str | None) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "REPRO_JOBS": os.environ.get("REPRO_JOBS"),
        "REPRO_VECTORIZE": os.environ.get("REPRO_VECTORIZE"),
        "seed": seed,
        "spans_file": spans_file,
    }


def write_files(run: Run, trace: bool, metrics: dict) -> Path:
    base = (f"{run.workload.name}-seed{run.seed}-trace{int(trace)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans_file = None
    if trace:
        spans_file = OUT_DIR / f"{base}-spans.json"
        passes = [("setup", None, run.setup_recorder)] + list(zip(
            range(len(run.recorders)), run.traced_pass_s, run.recorders))
        spans_file.write_text(json.dumps([
            {"pass": i, "wall_s": wall,
             "spans": [s.to_dict() for s in rec.spans]}
            for i, wall, rec in passes]))
    record = {
        "env": stamp(run.seed, spans_file and str(spans_file.name)),
        "workload": run.workload.name,
        "metrics": metrics,
        "setup_s": run.setup_s,
        "raw_setup_s": run.raw_setup_s,
        "pass_s": run.pass_s,
        "raw_pass_s": run.raw_pass_s,
        "traced_pass_s": run.traced_pass_s,
        "prep_s": run.prep_s,
        "peak_rss_scope": run.peak_rss_scope,
        "counters_repeat": counters_repeat(run) if trace else None,
        "counters": [dict(rec.counters) for rec in run.recorders],
        "calls": [dict(rec.calls) for rec in run.recorders],
        "setup_calls": dict(run.setup_recorder.calls),
        "job_s": {o.job.id: [p[i].seconds for p in run.passes]
                  for i, o in enumerate(run.passes[0])},
        "failures": run.failures,
    }
    path = OUT_DIR / f"{base}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def main_run(workload: Workload, seed: int, seconds: float,
             trace: bool) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        run = run_workload(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values = per_layer(run) if trace else end_to_end(run)
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    path = write_files(run, trace, values)
    for job_id, why in run.failures.items():
        print(f"FAILED {job_id}: {why}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1
