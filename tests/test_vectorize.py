"""Parity tests for the hot kernels (docs/performance.md).

The packed uint64 DEP/support kernel is checked against the big-int
:class:`SupportCalculator`, its test oracle, over every op class. Cut
enumeration, presolve and the BnB search each have one implementation;
their outputs on real scheduling inputs are pinned as digests of the
canonical forms below, so any change to a cut set, reduced model or
search tree fails here.
"""

import hashlib

import pytest

from repro.bitdeps import (
    PackedSupportCalculator,
    SupportCalculator,
    popcount,
)
from repro.bitdeps.packed import ints_to_rows, max_popcount, rows_to_ints
from repro.core.config import SchedulerConfig
from repro.core.formulation import MappingAwareFormulation
from repro.core.mapsched import MapScheduler
from repro.cuts.enumerate import CutEnumerator
from repro.designs import BENCHMARKS
from repro.designs.synthetic import random_dfg
from repro.errors import CutError
from repro.ir import DFGBuilder, OpKind
from repro.ir.transforms import narrow_graph
from repro.milp import SolveStatus
from repro.milp.presolve import presolve

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def both_supports(graph, target, boundary):
    """(reference masks, packed masks) for one cone, or matched errors."""
    ref = SupportCalculator(graph)
    vec = PackedSupportCalculator(graph)
    try:
        ref_masks = ref.supports(target, boundary)
        ref_err = None
    except CutError as exc:
        ref_masks, ref_err = None, str(exc)
    try:
        vec_masks = rows_to_ints(vec.supports_rows(target, boundary, None))
        vec_err = None
    except CutError as exc:
        vec_masks, vec_err = None, str(exc)
    assert ref_err == vec_err
    return ref_masks, vec_masks


def assert_cone_parity(graph, target, boundary):
    ref_masks, vec_masks = both_supports(graph, target, boundary)
    assert ref_masks == vec_masks


def canon_model(m):
    """Byte-exact canonical form of a model (repr keeps -0.0 vs 0.0)."""
    out = [(m.name, m.sense)]
    for v in m.variables:
        out.append((v.index, v.name, v.kind, repr(v.lo), repr(v.hi)))
    for c in m.constraints:
        out.append((c.name, c.sense, repr(c.expr.constant),
                    tuple((j, repr(a)) for j, a in c.expr.coeffs.items())))
    out.append((repr(m.objective.constant),
                tuple((j, repr(a)) for j, a in m.objective.coeffs.items())))
    return out


def canon_post(p):
    return (tuple((j, repr(v)) for j, v in p.fixed.items()),
            tuple(p.index_map.items()), p.status, p.stats.to_dict())


def canon_cuts(cut_sets):
    """Cut sets as a comparable structure (selection order preserved)."""
    return {
        root: [(c.kind, tuple(sorted(c.boundary)), c.masks,
                tuple(sorted(c.interior)), c.entries)
               for c in cs.selectable]
        for root, cs in cut_sets.items()
    }


def digest(obj):
    """Short stable digest of a canonical form (its repr is byte-exact)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def scheduling_model(name, config):
    graph, _ = narrow_graph(BENCHMARKS[name].build())
    sched = MapScheduler(graph, config=config)
    sched.enumerate()
    formulation = MappingAwareFormulation(graph, sched.cuts, sched.device,
                                          config, sched._horizon())
    return formulation.build()


# ----------------------------------------------------------------------
# Packed bitmask DEP/support kernels
# ----------------------------------------------------------------------
class TestPackedSupportParity:
    """Exhaustive small-width sweeps, one cone shape per DEP op class."""

    WIDTHS = (1, 2, 3, 4, 7)

    def _sweep(self, make):
        """Build a one-op cone per width and compare all support masks."""
        for width in self.WIDTHS:
            b = DFGBuilder("t", width=width)
            value, boundary = make(b, width)
            b.output(value, "o")
            graph = b.build()
            assert_cone_parity(graph, value.nid,
                               [v.nid for v in boundary])

    def test_bitwise(self):
        for op in (lambda a, c: a & c, lambda a, c: a | c,
                   lambda a, c: a ^ c):
            self._sweep(lambda b, w, op=op: self._two_input(b, op))

    @staticmethod
    def _two_input(b, op):
        a, c = b.input("a"), b.input("c")
        return op(a, c), [a, c]

    def test_not(self):
        def make(b, w):
            a = b.input("a")
            return ~a, [a]
        self._sweep(make)

    def test_mux(self):
        def make(b, w):
            sel = b.input("sel", 1)
            a, c = b.input("a"), b.input("c")
            return b.mux(sel, a, c), [sel, a, c]
        self._sweep(make)

    def test_shifts(self):
        for amount in (0, 1, 3):
            def make(b, w, amount=amount):
                a = b.input("a")
                return a << amount, [a]
            self._sweep(make)

            def make(b, w, amount=amount):
                a = b.input("a")
                return a >> amount, [a]
            self._sweep(make)

    def test_variable_shifts(self):
        def make(b, w):
            a, s = b.input("a"), b.input("s")
            return b.op(OpKind.VSHL, a, s, width=w), [a, s]
        self._sweep(make)

        def make(b, w):
            a, s = b.input("a"), b.input("s")
            return b.op(OpKind.VSHR, a, s, width=w), [a, s]
        self._sweep(make)

    def test_resize_and_slice(self):
        def make(b, w):
            a = b.input("a")
            return a.zext(w + 2), [a]
        self._sweep(make)

        def make(b, w):
            a = b.input("a", w + 2)
            return a.trunc(w), [a]
        self._sweep(make)

        def make(b, w):
            a = b.input("a", w + 1)
            return a.slice(1, w), [a]
        self._sweep(make)

    def test_concat(self):
        def make(b, w):
            a, c = b.input("a"), b.input("c")
            return b.concat(a, c), [a, c]
        self._sweep(make)

    def test_arith(self):
        for op in (lambda a, c: a + c, lambda a, c: a - c,
                   lambda a, c: a * c):
            self._sweep(lambda b, w, op=op: self._two_input(b, op))

        def make(b, w):
            a = b.input("a")
            return -a, [a]
        self._sweep(make)

    def test_compares(self):
        for op in ("eq", "ne", "lt", "ge", "slt", "sge"):
            def make(b, w, op=op):
                a, c = b.input("a"), b.input("c")
                return getattr(a, op)(c), [a, c]
            self._sweep(make)

    def test_sign_test_refinement(self):
        # x >= 0 (signed) reads only the MSB — the refined DEP rule.
        def make(b, w):
            a = b.input("a")
            return a.sge(0), [a]
        self._sweep(make)

    def test_interior_constants(self):
        def make(b, w):
            a = b.input("a")
            return a ^ b.const(1), [a]
        self._sweep(make)

    def test_deep_cone(self):
        b = DFGBuilder("t", width=4)
        a, c, d = b.input("a"), b.input("c"), b.input("d")
        x = (a + c) ^ (c >> 1)
        y = b.mux(d.bit(0), x, a - d)
        b.output(y, "o")
        graph = b.build()
        assert_cone_parity(graph, y.nid, [a.nid, c.nid, d.nid])
        # intermediate boundary: stop the cone at x
        assert_cone_parity(graph, y.nid, [x.nid, a.nid, d.nid])

    def test_error_parity_loop_carried(self):
        b = DFGBuilder("t", width=4)
        i = b.input("i")
        r = b.recurrence("r")
        v = i ^ r
        v.feed(r)
        b.output(v, "o")
        graph = b.build()
        ref_masks, vec_masks = both_supports(graph, v.nid, [i.nid])
        assert ref_masks is None and vec_masks is None

    def test_random_graphs(self):
        for seed in range(25):
            graph = random_dfg(seed, ops=12, width=5, inputs=3,
                               recurrences=0, allow_arith=True)
            target = graph.outputs[0].operands[0].source
            node = graph.node(target)
            if node.kind in (OpKind.INPUT, OpKind.CONST):
                continue
            boundary = [n.nid for n in graph.inputs]
            ref_masks, vec_masks = both_supports(graph, target, boundary)
            assert ref_masks == vec_masks

    def test_round_trip_and_popcounts(self):
        masks = [0, 1, (1 << 64) - 1, 1 << 200, (1 << 130) | 7]
        rows = ints_to_rows(masks, words=4)
        assert rows_to_ints(rows) == masks
        assert max_popcount(rows) == max(popcount(m) for m in masks)


# ----------------------------------------------------------------------
# Cut enumeration
# ----------------------------------------------------------------------
class TestCutEnumerationParity:
    #: name -> (canon_cuts digest, candidates_generated, total_selectable)
    PINS = {
        "GSM": ("2d91ba177c7de7e7", 7, 8),
        "DR": ("bf510bef2b3c513a", 90, 33),
        "CLZ": ("622a000674315265", 284, 74),
        "GFMUL": ("cb3933bcdb161b73", 9086, 373),
        "MT": ("98df690122ebfb6d", 971, 163),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_cut_sets_identical(self, name):
        graph, _ = narrow_graph(BENCHMARKS[name].build())
        enumerator = CutEnumerator(graph, 6, max_cuts=12)
        cuts = enumerator.run()
        assert (digest(canon_cuts(cuts)),
                enumerator.stats.candidates_generated,
                enumerator.stats.total_selectable) == self.PINS[name]


# ----------------------------------------------------------------------
# Presolve
# ----------------------------------------------------------------------
class TestPresolveParity:
    #: name -> (canon_model digest, canon_post digest) of the reduced model
    PINS = {
        "DR": ("8b287d56187323d5", "65d451279da80d06"),
        "CLZ": ("37903a5105127b8c", "a69b6d9d09ca79f8"),
        "GFMUL": ("a26d2511157faf20", "3ea1c43e063a4529"),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_reduced_model_identical(self, name):
        """Real scheduling formulations reduce to the pinned models."""
        config = SchedulerConfig(presolve=False, warm_start=False)
        model = scheduling_model(name, config)
        reduced, post = presolve(model)
        assert (digest(canon_model(reduced)),
                digest(canon_post(post))) == self.PINS[name]


# ----------------------------------------------------------------------
# Branch and bound
# ----------------------------------------------------------------------
class TestBnbParity:
    def test_same_solution_on_scheduling_model(self):
        config = SchedulerConfig(presolve=False, warm_start=False,
                                 backend="bnb", use_mapping=False)
        model = scheduling_model("DR", config)
        sol = model.solve(backend="bnb", time_limit=60.0)
        values = tuple((j, repr(v)) for j, v in sorted(sol.values.items()))
        # Node and LP counts are wall-clock free: identical branching
        # decisions give an identical tree.
        assert (sol.status, repr(sol.objective), digest(values),
                sol.stats["nodes"], sol.stats["lps"]) == (
            SolveStatus.OPTIMAL, "240.00200000000007", "04822a03ab4ea406",
            317, 638)
