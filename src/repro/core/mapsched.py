"""Top-level schedulers: MILP-map and MILP-base (Sec. 4 method names).

:class:`MapScheduler` runs the full flow of the paper: word-level cut
enumeration, MILP construction, solve (with the time cap), extraction, and
independent verification. :class:`BaseScheduler` is the mapping-agnostic
control: it "skips the cut enumeration step" so every operation only has its
unit (standalone-operator) cut — the delays are then exactly the additive
pre-characterized ones, but scheduling and register minimization are still
exact.
"""

from __future__ import annotations

from dataclasses import replace

from ..cuts.cut import CutSet
from ..cuts.enumerate import CutEnumerator, prune_cut_sets
from ..errors import InfeasibleError, SolverError
from ..ir.graph import CDFG
from ..ir.validate import validate
from ..milp.model import Constraint, LinExpr, Solution, SolveStatus
from ..milp.presolve import presolve as run_presolve
from ..runtime.trace import Tracer
from ..scheduling.modulo import HeuristicModuloScheduler
from ..scheduling.schedule import Schedule
from ..tech.device import XC7, Device
from .config import SchedulerConfig
from .formulation import MappingAwareFormulation
from .verify import verify_schedule

__all__ = ["MapScheduler", "BaseScheduler"]


class MapScheduler:
    """Mapping-aware modulo scheduling via MILP (the paper's contribution)."""

    method_name = "milp-map"

    def __init__(self, graph: CDFG, device: Device = XC7,
                 config: SchedulerConfig | None = None,
                 tracer: Tracer | None = None) -> None:
        validate(graph)
        self.graph = graph
        self.device = device
        self.config = config or SchedulerConfig()
        #: Phase tracing (cut-enum / milp-build / solve spans). Always
        #: present; callers that care pass a shared flow-level tracer.
        self.tracer = tracer or Tracer()
        self.enumerator: CutEnumerator | None = None
        self.formulation: MappingAwareFormulation | None = None
        self.cuts: dict[int, CutSet] = {}
        #: Heuristic warm-start schedules keyed by their *actual* II; the
        #: heuristic may bump a target II upward, and a sweep reuses the
        #: bumped schedule when it reaches that II (docs/performance.md).
        self._warm_cache: dict[int, Schedule] = {}

    # ------------------------------------------------------------------
    def enumerate(self) -> dict[int, CutSet]:
        """Run cut enumeration (full sets for MILP-map)."""
        with self.tracer.span("cut-enum", method=self.method_name) as span:
            self.enumerator = CutEnumerator(
                self.graph, self.device.k, max_cuts=self.config.max_cuts,
            )
            self.cuts = self.enumerator.run()
            span.meta["candidates"] = self.enumerator.stats.candidates_generated
            # Dominance/over-budget pruning shrinks the model before it
            # is even built (one cut binary + its chain rows per drop).
            self.cuts, pruned = prune_cut_sets(
                self.graph, self.cuts, self.device,
                self.device.usable_period(self.config.tcp),
            )
            span.meta["cuts"] = sum(len(cs) for cs in self.cuts.values())
            span.meta["pruned"] = pruned
        return self.cuts

    def _horizon(self) -> int:
        if self.config.latency_bound is not None:
            return self.config.latency_bound
        heuristic = HeuristicModuloScheduler(self.graph, self.device,
                                             self.config.tcp)
        # The additive-delay latency upper-bounds the mapped latency; the
        # margin absorbs modulo packing of constrained black boxes.
        latency = heuristic.asap_latency()
        return max(1, latency) + self.config.latency_margin

    # ------------------------------------------------------------------
    def schedule(self) -> Schedule:
        """Enumerate, build, solve, extract and verify."""
        if not self.cuts:
            self.enumerate()
        horizon = self._horizon()
        schedule = self._solve_with_horizon(horizon)
        if schedule is None:
            # One retry with a generous horizon before declaring defeat.
            schedule = self._solve_with_horizon(horizon * 2 + 4)
        if schedule is None:
            raise InfeasibleError(
                f"no feasible schedule for {self.graph.name} at "
                f"II={self.config.ii}, Tcp={self.config.tcp}"
            )
        return verify_schedule(schedule, self.device)

    def sweep(self, ii_max: int | None = None) -> Schedule:
        """Find the smallest feasible II >= ``config.ii`` (ascending).

        Cuts are enumerated once and shared by every probe. Presolve
        fails infeasible IIs fast (often without a single LP), and the
        heuristic warm-start cache chains across probes: a heuristic run
        that bumped itself to a larger II seeds the solve when the sweep
        reaches that II. ``self.config`` is left at the II that
        succeeded so the returned schedule and the scheduler agree.
        """
        if not self.cuts:
            self.enumerate()
        base = self.config
        cap = ii_max if ii_max is not None else base.ii + self._horizon()
        last_error: SolverError | None = None
        for ii in range(base.ii, cap + 1):
            self.config = replace(base, ii=ii)
            with self.tracer.context(ii=ii):
                try:
                    schedule = self._solve_with_horizon(self._horizon())
                except SolverError as exc:
                    last_error = exc
                    continue
            if schedule is not None:
                return verify_schedule(schedule, self.device)
        self.config = base
        if last_error is not None:
            raise last_error
        raise InfeasibleError(
            f"no feasible schedule for {self.graph.name} at any "
            f"II in [{base.ii}, {cap}], Tcp={base.tcp}"
        )

    # -- warm starts ----------------------------------------------------
    def _warm_schedule(self) -> tuple[Schedule | None, str | None]:
        """A feasible schedule at exactly ``config.ii``, or a reason why not.

        The mapping-aware heuristic (``core/heuristic.py``) runs over the
        *same* cut sets, so its cover translates directly into the MILP's
        cut binaries. The heuristic may bump the II upward; bumped
        schedules are cached for later sweep probes, never used early.
        """
        ii = self.config.ii
        cached = self._warm_cache.get(ii)
        if cached is not None:
            return cached, None
        from .heuristic import MappingAwareHeuristicScheduler

        try:
            heur = MappingAwareHeuristicScheduler(
                self.graph, self.device, self.config
            )
            heur.cuts = self.cuts
            sched = heur.schedule(ii)
        except Exception as exc:  # heuristic failures only cost the seed
            return None, f"heuristic-failed:{type(exc).__name__}"
        self._warm_cache.setdefault(sched.ii, sched)
        if sched.ii != ii:
            return None, f"heuristic-ii-bumped:{sched.ii}"
        return sched, None

    def _solve_with_horizon(self, horizon: int) -> Schedule | None:
        config = self.config
        with self.tracer.span("milp-build", method=self.method_name,
                              horizon=horizon) as span:
            self.formulation = MappingAwareFormulation(
                self.graph, self.cuts, self.device, config, horizon
            )
            model = self.formulation.build()
            span.meta["constraints"] = model.num_constraints
            span.meta["variables"] = model.num_vars
            span.meta["integer_variables"] = model.num_integer_vars

        # Model reduction: the solver only ever sees the reduced model;
        # solutions are lifted back through the Postsolve mapping.
        post = None
        solve_model = model
        if config.presolve:
            with self.tracer.span("presolve", method=self.method_name) as span:
                reduced, post = run_presolve(model)
                span.meta.update(post.stats.to_dict())
                if post.status is not None:
                    # Infeasibility proven without a single LP — the
                    # fast path for doomed II probes in a sweep.
                    span.meta["proved"] = "infeasible"
                    return None
                solve_model = reduced

        # Warm start: heuristic schedule -> model assignment -> cutoff
        # constraint (scipy) or incumbent + branch hints (bnb).
        warm_values = None
        warm_sched = None
        if config.warm_start:
            with self.tracer.span("warm-start",
                                  method=self.method_name) as span:
                warm_sched, reason = self._warm_schedule()
                if warm_sched is not None:
                    assignment = self.formulation.assignment_from_schedule(
                        warm_sched
                    )
                    if assignment is None:
                        reason = "outside-horizon"
                    elif model.check(assignment):
                        reason = "failed-model-check"
                    else:
                        warm_values = assignment
                        span.meta["objective"] = \
                            model.objective.value(assignment)
                if warm_values is None:
                    warm_sched = None
                span.meta["used"] = warm_values is not None
                if reason:
                    span.meta["reason"] = reason

        solver_kwargs: dict = {}
        if warm_values is not None:
            restricted = (post.restrict(warm_values) if post is not None
                          else dict(warm_values))
            if config.backend == "scipy" and solve_model.sense == "min":
                # HiGHS has no warm-start hook through scipy; an upper
                # cutoff on the objective prunes everything worse than
                # the heuristic. The slack keeps the optimum itself
                # comfortably inside the feasible region.
                obj = solve_model.objective
                warm_obj = model.objective.value(warm_values)
                slack = 1e-6 * max(1.0, abs(warm_obj))
                solve_model.add(
                    Constraint(
                        LinExpr(dict(obj.coeffs),
                                obj.constant - (warm_obj + slack)),
                        "<=",
                    ),
                    name="warm_cutoff",
                )
            elif config.backend == "bnb":
                solver_kwargs["warm_start"] = restricted
                solver_kwargs["branch_hints"] = restricted

        if config.backend == "scipy":
            solver_kwargs["mip_rel_gap"] = config.mip_rel_gap
        with self.tracer.span("solve", method=self.method_name,
                              backend=config.backend) as span:
            solution = solve_model.solve(
                backend=config.backend,
                time_limit=config.time_limit,
                **solver_kwargs,
            )
            if post is not None:
                solution = post.expand(solution)
            span.meta["status"] = solution.status
            span.meta["solver_seconds"] = solution.solve_seconds
            span.meta["optimal"] = solution.status == SolveStatus.OPTIMAL
            if solution.stats:
                span.meta["solver_stats"] = dict(solution.stats)
        if solution.status == SolveStatus.INFEASIBLE:
            return None
        if solution.status == SolveStatus.NO_INCUMBENT:
            if warm_sched is not None and warm_values is not None:
                # The cap fired before the solver beat the heuristic —
                # but the heuristic schedule is feasible; use it.
                solution = Solution(
                    status=SolveStatus.FEASIBLE,
                    objective=model.objective.value(warm_values),
                    values=dict(warm_values),
                    message="warm-start fallback: time cap fired before "
                            "any solver incumbent",
                )
            else:
                raise SolverError(
                    f"time cap too tight: solver hit the "
                    f"{config.time_limit}s limit on {self.graph.name} "
                    f"({model.num_constraints} constraints) before finding "
                    f"any incumbent — raise time_limit or loosen mip_rel_gap"
                )
        if not solution.ok:
            raise SolverError(
                f"solver returned {solution.status}: {solution.message}"
            )
        return self.formulation.extract(solution, self.method_name)


class BaseScheduler(MapScheduler):
    """MILP-base: exact scheduling without mapping awareness (Sec. 4)."""

    method_name = "milp-base"

    def enumerate(self) -> dict[int, CutSet]:
        """Unit cuts only — max_cuts=0 disables cone growth entirely."""
        with self.tracer.span("cut-enum", method=self.method_name) as span:
            self.enumerator = CutEnumerator(self.graph, self.device.k,
                                            max_cuts=0)
            self.cuts = self.enumerator.run()
            span.meta["cuts"] = self.enumerator.stats.total_selectable
            span.meta["candidates"] = self.enumerator.stats.candidates_generated
        return self.cuts
