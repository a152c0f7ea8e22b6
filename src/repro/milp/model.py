"""A small MILP modeling layer.

The paper uses CPLEX; this module plays the role of its modeling API. It is
deliberately minimal: continuous/integer/binary variables with bounds, linear
expressions built with Python operators, ``<=``/``>=``/``==`` constraints, a
linear objective, and pluggable backends (:mod:`repro.milp.scipy_backend`,
:mod:`repro.milp.bnb`).

Example::

    m = Model("demo")
    x = m.binary("x")
    y = m.integer("y", lo=0, hi=10)
    m.add(x + 2 * y <= 7, name="cap")
    m.minimize(-(3 * x + y))
    sol = m.solve()
    print(sol[x], sol[y])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import ModelError

__all__ = ["Var", "LinExpr", "Constraint", "Model", "Solution", "SolveStatus"]


@dataclass(frozen=True)
class Var:
    """A decision variable. Create via :class:`Model` factory methods."""

    index: int
    name: str
    kind: str  # "continuous" | "integer" | "binary"
    lo: float
    hi: float

    # -- expression building -------------------------------------------
    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1 * self._expr()) + other

    def __mul__(self, coeff: float):
        return self._expr() * coeff

    __rmul__ = __mul__

    def __neg__(self):
        return self._expr() * -1.0

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, int, float)):
            return self._expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Var", self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var({self.name})"


class LinExpr:
    """A linear expression ``sum(coeff_i * var_i) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[int, float] | None = None,
                 constant: float = 0.0) -> None:
        self.coeffs: dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)

    @staticmethod
    def _as_expr(x) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, Var):
            return x._expr()
        if isinstance(x, (int, float)):
            return LinExpr({}, float(x))
        raise ModelError(f"cannot use {type(x).__name__} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    def __add__(self, other) -> "LinExpr":
        other = self._as_expr(other)
        out = self.copy()
        for idx, c in other.coeffs.items():
            out.coeffs[idx] = out.coeffs.get(idx, 0.0) + c
        out.constant += other.constant
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (self._as_expr(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return self._as_expr(other) + (self * -1.0)

    def __mul__(self, coeff) -> "LinExpr":
        if not isinstance(coeff, (int, float)):
            raise ModelError("expressions are linear: multiply by a scalar")
        out = LinExpr({i: c * coeff for i, c in self.coeffs.items()},
                      self.constant * coeff)
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, ">=")

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, int, float)):
            return Constraint(self - other, "==")
        return NotImplemented

    def __hash__(self) -> int:  # expressions are mutable; identity hash
        return id(self)

    def value(self, assignment: Mapping[int, float]) -> float:
        """Evaluate under a variable-index assignment."""
        return self.constant + sum(
            c * assignment.get(i, 0.0) for i, c in self.coeffs.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms} + {self.constant:g})"


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` — normalized at construction."""

    expr: LinExpr
    sense: str
    name: str = ""

    def violation(self, assignment: Mapping[int, float]) -> float:
        """How much the constraint is violated (0 when satisfied)."""
        v = self.expr.value(assignment)
        if self.sense == "<=":
            return max(0.0, v)
        if self.sense == ">=":
            return max(0.0, -v)
        return abs(v)


class SolveStatus:
    """Status constants shared by all backends."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # time limit hit, incumbent returned
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    #: The time cap fired before the solver found *any* incumbent: the
    #: model may well be feasible — the cap is simply too tight. Distinct
    #: from ERROR so callers can raise a precise "raise the time limit"
    #: diagnosis instead of a generic solver failure.
    NO_INCUMBENT = "no-incumbent"
    ERROR = "error"


@dataclass
class Solution:
    """Result of :meth:`Model.solve`."""

    status: str
    objective: float | None
    values: dict[int, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    gap: float | None = None
    message: str = ""
    #: Backend bookkeeping (node counts, LP counts, presolve reductions);
    #: copied into the ``solve`` span's ``solver_stats``, never read by
    #: the schedulers.
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when a usable assignment is available."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def __getitem__(self, var: Var) -> float:
        return self.values.get(var.index, 0.0)

    def int_value(self, var: Var) -> int:
        """Rounded value (for integer/binary variables)."""
        return int(round(self[var]))


class Model:
    """An MILP under construction."""

    def __init__(self, name: str = "milp") -> None:
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense = "min"

    # -- variable factories ----------------------------------------------
    def _new_var(self, name: str, kind: str, lo: float, hi: float) -> Var:
        if hi < lo:
            raise ModelError(f"variable {name}: empty domain [{lo}, {hi}]")
        var = Var(len(self.variables), name or f"v{len(self.variables)}",
                  kind, lo, hi)
        self.variables.append(var)
        return var

    def continuous(self, name: str = "", lo: float = 0.0,
                   hi: float = float("inf")) -> Var:
        """A continuous variable with bounds [lo, hi]."""
        return self._new_var(name, "continuous", lo, hi)

    def integer(self, name: str = "", lo: float = 0.0,
                hi: float = float("inf")) -> Var:
        """An integer variable with bounds [lo, hi]."""
        return self._new_var(name, "integer", lo, hi)

    def binary(self, name: str = "") -> Var:
        """A 0/1 variable."""
        return self._new_var(name, "binary", 0.0, 1.0)

    # -- constraints and objective ---------------------------------------
    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (returns it for convenience)."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "Model.add expects a comparison of linear expressions; "
                f"got {type(constraint).__name__} (a bare bool usually means "
                "two constants were compared)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr: LinExpr | Var) -> None:
        """Set a minimization objective."""
        self.objective = LinExpr._as_expr(expr)
        self.sense = "min"

    def maximize(self, expr: LinExpr | Var) -> None:
        """Set a maximization objective."""
        self.objective = LinExpr._as_expr(expr)
        self.sense = "max"

    # -- introspection ---------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.kind != "continuous")

    def lint(self):
        """Run the MILP static-analysis rules over this model.

        Returns a :class:`~repro.analysis.DiagnosticReport` flagging
        trivially infeasible constraints, dead variables, by-construction
        unbounded objectives, non-finite coefficients and duplicate
        constraints (codes ``MILP001``–``MILP005``).
        """
        from ..analysis import lint_model

        return lint_model(self)

    def check(self, assignment: Mapping[int, float],
              tol: float = 1e-6) -> list[str]:
        """Names/indices of constraints violated by ``assignment``."""
        bad = []
        for i, con in enumerate(self.constraints):
            if con.violation(assignment) > tol:
                bad.append(con.name or f"c{i}")
        for var in self.variables:
            val = assignment.get(var.index, 0.0)
            if val < var.lo - tol or val > var.hi + tol:
                bad.append(f"bounds:{var.name}")
            if var.kind != "continuous" and abs(val - round(val)) > 1e-4:
                bad.append(f"integrality:{var.name}")
        return bad

    # -- solving -----------------------------------------------------------
    def solve(self, backend: str = "scipy", time_limit: float | None = None,
              presolve: bool = False, **options) -> Solution:
        """Solve with the named backend (``"scipy"`` or ``"bnb"``).

        ``presolve=True`` runs :func:`repro.milp.presolve.presolve`
        first, solves the reduced model, and reports the solution in the
        original variable space (the reduction statistics land in
        ``Solution.stats["presolve"]``). Schedulers drive presolve
        explicitly for span accounting; this flag is the convenience
        path used by tests and the fuzz oracle.
        """
        start = time.perf_counter()
        if presolve:
            from .presolve import presolve as run_presolve

            reduced, post = run_presolve(self)
            if post.status is not None:
                return Solution(
                    status=post.status, objective=None,
                    solve_seconds=time.perf_counter() - start,
                    message="presolve proved infeasibility",
                    stats={"presolve": post.stats.to_dict()},
                )
            sol = reduced.solve(backend=backend, time_limit=time_limit,
                                presolve=False, **options)
            sol = post.expand(sol)
            sol.stats["presolve"] = post.stats.to_dict()
            sol.solve_seconds = time.perf_counter() - start
            return sol
        if backend == "scipy":
            from .scipy_backend import solve_scipy

            sol = solve_scipy(self, time_limit=time_limit, **options)
        elif backend == "bnb":
            from .bnb import solve_branch_and_bound

            sol = solve_branch_and_bound(self, time_limit=time_limit, **options)
        else:
            raise ModelError(f"unknown backend {backend!r}")
        sol.solve_seconds = time.perf_counter() - start
        return sol
