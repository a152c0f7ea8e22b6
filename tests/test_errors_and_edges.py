"""Edge-case tests: error hierarchy, ASAP/ALAP corners, schedule config."""

import pytest

from repro.core import SchedulerConfig
from repro.errors import (
    CutError,
    IRError,
    InfeasibleError,
    ModelError,
    ReproError,
    ScheduleVerificationError,
    SchedulingError,
    SimulationError,
    SolverError,
    ValidationError,
)
from repro.ir import DFGBuilder
from repro.scheduling import alap_schedule, asap_schedule


class TestErrorHierarchy:
    def test_everything_is_reproerror(self):
        for cls in (IRError, ValidationError, CutError, ModelError,
                    SolverError, InfeasibleError, SchedulingError,
                    SimulationError):
            assert issubclass(cls, ReproError)

    def test_validation_is_ir_error(self):
        assert issubclass(ValidationError, IRError)

    def test_infeasible_is_solver_error(self):
        assert issubclass(InfeasibleError, SolverError)
        assert "infeasible" in str(InfeasibleError())

    def test_verification_error_truncates_preview(self):
        err = ScheduleVerificationError([f"violation {i}" for i in range(9)])
        assert len(err.violations) == 9
        assert "+4 more" in str(err)


class TestSchedulerConfig:
    def test_defaults_match_paper(self):
        cfg = SchedulerConfig()
        assert cfg.ii == 1 and cfg.tcp == 10.0
        assert cfg.alpha == cfg.beta == 0.5

    def test_rejects_bad_values(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(ii=0)
        with pytest.raises(SchedulingError):
            SchedulerConfig(tcp=-1)
        with pytest.raises(SchedulingError):
            SchedulerConfig(alpha=-0.1)
        with pytest.raises(SchedulingError):
            SchedulerConfig(time_limit=-5)
        with pytest.raises(SchedulingError):
            SchedulerConfig(time_limit=0)
        with pytest.raises(SchedulingError):
            SchedulerConfig(backend="cplex")
        with pytest.raises(SchedulingError):
            SchedulerConfig(max_cuts=-1)

    def test_accepts_edge_values(self):
        assert SchedulerConfig(time_limit=None).time_limit is None
        assert SchedulerConfig(max_cuts=0).max_cuts == 0

    def test_frozen(self):
        cfg = SchedulerConfig()
        with pytest.raises(Exception):
            cfg.ii = 2  # type: ignore[misc]


class TestChainingCorners:
    def make_diamond(self):
        b = DFGBuilder("d", width=4)
        a = b.input("a")
        left = a ^ 1
        right = a ^ 2
        b.output(left & right, "o")
        return b.build()

    def test_diamond_joins_at_max(self):
        g = self.make_diamond()
        times = asap_schedule(
            g, lambda nid: 1.0 if not g.node(nid).is_boundary else 0.0, 10.0)
        join = next(n for n in g if n.kind.value == "and")
        assert times.start[join.nid] == pytest.approx(1.0)

    def test_exact_budget_fit(self):
        b = DFGBuilder("c", width=4)
        v = b.input("i")
        for _ in range(4):
            v = v ^ 1
        b.output(v, "o")
        g = b.build()
        # 4 x 2.5 ns fills a 10 ns cycle exactly: still one cycle
        times = asap_schedule(
            g, lambda nid: 2.5 if g.node(nid).kind.value == "xor" else 0.0,
            10.0)
        assert times.latency == 1

    def test_alap_with_extra_latency_slack(self):
        g = self.make_diamond()

        def d(nid):
            return 1.0 if not g.node(nid).is_boundary else 0.0

        asap = asap_schedule(g, d, 3.0)
        alap = alap_schedule(g, d, 3.0, latency=asap.latency + 2)
        for nid in g.node_ids:
            assert alap.cycle[nid] >= asap.cycle[nid]

    def test_alap_impossible_latency(self):
        from repro.errors import SchedulingError

        g = self.make_diamond()
        with pytest.raises(SchedulingError):
            alap_schedule(g, lambda nid: 2.0, 3.0, latency=0)
