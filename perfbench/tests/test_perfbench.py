"""Tests of the benchmark itself: wrappers, restore, counters, gate.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import signal
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, layers, speed
from perfbench.workloads import BNB, HIGHS, WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parents[2]

#: Small job lists that reach every layer between them in a few seconds.
SMALL_PARTITION = replace(HIGHS, partition=True, partition_size=12)
SMALL = (
    Workload("small-flow", "", (
        Job("GSM", "hls-tool"), Job("GSM", "milp-base"),
        Job("GSM", "milp-map"), Job("MT", "milp-base", BNB),
        Job("GFMUL", "milp-map", SMALL_PARTITION))),
    Workload("small-signoff", "", (Job("GSM", "milp-map"),),
             mode="signoff"),
)


def _bindings() -> dict[str, object]:
    """Identity of every binding an entry point has, across repro."""
    layers.import_all()
    out = {}
    for _, module_name, path, _ in layers.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            out[path] = vars(getattr(module, cls_name))[meth]
            continue
        orig = getattr(module, path)
        for mod in layers._repro_modules():
            for attr, value in vars(mod).items():
                if value is orig:
                    out[f"{mod.__name__}.{attr}"] = value
    return out


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    before = _bindings()
    runs = [harness.run_workload(w, seed=3, seconds=0.0, trace=True,
                                 scratch=str(tmp_path_factory.mktemp(w.name)))
            for w in SMALL]
    return before, runs


def test_every_entry_point_fires(small_runs):
    _, runs = small_runs
    calls = Counter()
    for run in runs:
        for rec in [run.setup_recorder, *run.recorders]:
            calls.update(rec.calls)
    missing = [path for _, _, path, _ in layers.ENTRY_POINTS
               if calls[path] == 0]
    assert missing == []


def test_direct_imports_are_wrapped_at_the_caller(small_runs):
    # mapsched calls presolve through its own ``run_presolve`` binding and
    # flows calls verify/evaluate/map/fingerprint through theirs.
    _, runs = small_runs
    calls = runs[0].recorders[0].calls
    assert calls["presolve"] > 0
    for name in ("verify_schedule", "evaluate", "map_schedule"):
        assert calls[name] > 0
    assert runs[1].recorders[0].calls["flow_fingerprint"] > 0


def test_originals_restored(small_runs):
    before, _ = small_runs
    after = _bindings()
    assert layers.wrapped_bindings() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_runs_pass_the_gate(small_runs):
    _, runs = small_runs
    for run in runs:
        assert run.attempted > 0 and run.failed == 0, run.failures


def test_per_layer_metrics_cover_the_layers(small_runs):
    _, (flow, signoff) = small_runs
    m = harness.per_layer(flow)
    assert set(m) == set(harness.PER_LAYER)
    for name in ("milp.solve_calls", "milp.nodes.bnb", "milp.lps",
                 "core.formulation.nnz", "milp.presolve.nnz_after",
                 "cuts.candidates", "cuts.kept", "partition.subgraphs"):
        assert m[name] > 0, name
    # Pruning only follows the MILP-map scheduler's enumerations.
    assert 0.0 < m["cuts.kept_ratio"] <= 1.0
    s = harness.per_layer(signoff)
    assert s["analysis.equiv.goals"] > 0
    assert s["runtime.cache.hit_ratio"] == 1.0
    assert s["milp.solve_calls"] == 0


def test_self_times_partition_the_traced_wall(small_runs):
    _, runs = small_runs
    rec, wall = runs[0].recorders[0], runs[0].traced_pass_s[0]
    selfs = layers.self_times(rec.spans)
    top = sum(s.seconds for s in rec.spans if s.parent is None)
    assert sum(selfs.values()) == pytest.approx(top, rel=1e-9)
    assert 0.0 <= wall - top <= wall


def test_work_counters_repeat(small_runs, tmp_path):
    _, runs = small_runs
    again = harness.run_workload(SMALL[0], seed=3, seconds=0.0, trace=True,
                                 scratch=str(tmp_path))
    first = layers.layer_metrics(runs[0].recorders[0], 0.0)
    second = layers.layer_metrics(again.recorders[0], 0.0)
    assert {k: first[k] for k in layers.DETERMINISTIC} == \
        {k: second[k] for k in layers.DETERMINISTIC}


def test_setups_are_timed_cold_in_child_processes(small_runs):
    _, runs = small_runs
    for run in runs:
        # At least one before the passes and as many after them.
        assert len(run.setup_s) >= 2 and len(run.setup_s) % 2 == 0
        assert all(s > 0.0 for s in run.setup_s)
    # The signoff results were computed in a child, which reported the
    # outcome of every solve behind them.
    assert runs[1].prep_s > 0.0 and runs[1].tally.counters["milp.proven"] > 0


def test_peak_rss_covers_the_first_pass(tmp_path):
    run = harness.run_workload(SMALL[0], seed=3, seconds=0.0, trace=False,
                               scratch=str(tmp_path))
    assert run.peak_rss_mb > 0.0
    assert run.peak_rss_scope.startswith("first pass")


def test_untraced_passes_are_timed_at_reference_speed(tmp_path):
    run = harness.run_workload(SMALL[0], seed=3, seconds=0.0, trace=False,
                               scratch=str(tmp_path))
    assert len(run.pass_s) == len(run.raw_pass_s) >= 1
    assert all(s > 0.0 for s in run.pass_s + run.raw_pass_s)
    assert len(run.raw_setup_s) == len(run.setup_s)


def test_scale_takes_machine_speed_out():
    marks = [0.0, 1.0, 2.5, 3.0]
    at_ref = speed.scale(marks, [speed.REFERENCE_S] * 4)
    # The same work on a machine running at half speed.
    slow = speed.scale([2 * m for m in marks], [2 * speed.REFERENCE_S] * 4)
    assert at_ref == pytest.approx(3.0) and slow == pytest.approx(3.0)
    # One slow sample is smoothed over by its neighbours.
    spiked = speed.scale(marks, [speed.REFERENCE_S] * 2
                         + [9 * speed.REFERENCE_S, speed.REFERENCE_S])
    assert spiked == pytest.approx(3.0)


def test_speed_gauge_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedGauge(interval=0.01) as gauge:
        speed.reference(100_000)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.samples) >= 3
    assert 0.0 < gauge.wall and 0.0 < gauge.scaled


def test_failing_job_is_counted(tmp_path):
    broken = Workload("broken", "", (Job("GSM", "no-such-method"),))
    run = harness.run_workload(broken, seed=0, seconds=0.0, trace=False,
                               scratch=str(tmp_path))
    assert run.failed == run.attempted == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
