"""Word-level cut enumeration (paper Algorithm 1 + Eq. 1).

For every node the enumerator produces:

* the **trivial** cut ``{v}`` — merge ingredient only;
* the **unit** cut — v implemented as a standalone operator over its direct
  DEP inputs (the only selectable cut in MILP-base, and the fallback when no
  K-feasible cone exists, e.g. wide carry chains);
* **merged** cuts grown by combining one cut per DEP input (Eq. 1), kept
  when K-feasible in the bit-support sense (DESIGN.md note 2).

Loop-carried (distance >= 1) operands always contribute their trivial cut:
a registered value can feed a cone but the cone cannot grow through the
register (DESIGN.md note 5) — this is how the enumerator "handles the cycle"
of the paper's Figure 2. Black boxes and primary inputs likewise only offer
their trivial cut. Constants are absorbed for free and never appear in
boundaries.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from ..bitdeps.dep import word_dep_sources
from ..bitdeps.packed import (
    PackedSupportCalculator,
    ints_to_rows,
    max_popcount,
    rows_to_ints,
)
from ..bitdeps.support import SupportCalculator
from ..errors import CutError
from ..ir.graph import CDFG
from ..ir.types import OpKind
from .cut import Cut, CutSet

__all__ = ["CutEnumerator", "EnumerationStats", "enumerate_cuts"]


@dataclass
class EnumerationStats:
    """Bookkeeping for Table 2 / the K-sweep ablation."""

    k: int
    nodes_processed: int = 0
    worklist_visits: int = 0
    candidates_generated: int = 0
    cuts_kept: int = 0
    capped_nodes: int = 0
    per_node_counts: dict[int, int] = field(default_factory=dict)

    @property
    def total_selectable(self) -> int:
        """Total selectable cuts across the graph (drives MILP size)."""
        return sum(self.per_node_counts.values())


class CutEnumerator:
    """Enumerates K-feasible word-level cuts for a CDFG.

    Parameters
    ----------
    graph:
        The CDFG (validated).
    k:
        LUT input count of the target device.
    max_cuts:
        Cap on *merged* cuts kept per node (priority: small support, then
        small boundary). The unit cut never counts against the cap.
    max_candidates:
        Safety valve on the per-node merge product.

    Cut supports are composed on packed uint64 bitmask rows
    (:class:`~repro.bitdeps.packed.PackedSupportCalculator`); trivial cuts
    take their leaf masks from the reference
    :class:`~repro.bitdeps.support.SupportCalculator`.
    """

    def __init__(self, graph: CDFG, k: int, max_cuts: int = 12,
                 max_candidates: int = 20000) -> None:
        if k < 2:
            raise CutError(f"K must be >= 2, got {k}")
        self.graph = graph
        self.k = k
        self.max_cuts = max_cuts
        self.max_candidates = max_candidates
        self.calc = SupportCalculator(graph)
        self._pcalc = PackedSupportCalculator(graph)
        self.stats = EnumerationStats(k=k)
        self._trivial: dict[int, Cut] = {}
        self._merged: dict[int, list[Cut]] = {}
        self._unit: dict[int, Cut | None] = {}

    # ------------------------------------------------------------------
    def run(self) -> dict[int, CutSet]:
        """Execute Algorithm 1 and return a CutSet per node id."""
        graph = self.graph
        for nid in graph.node_ids:
            self._trivial[nid] = self._make_trivial(nid)
            self._merged[nid] = []
            self._unit[nid] = None

        order = graph.topological_order()
        worklist = deque(order)
        queued = set(worklist)
        while worklist:
            nid = worklist.popleft()
            queued.discard(nid)
            self.stats.worklist_visits += 1
            node = graph.node(nid)
            if node.kind in (OpKind.INPUT, OpKind.CONST):
                continue
            changed = self._update_node(nid)
            if changed:
                for succ in graph.successor_ids(nid):
                    if succ not in queued:
                        worklist.append(succ)
                        queued.add(succ)

        result: dict[int, CutSet] = {}
        for nid in graph.node_ids:
            node = graph.node(nid)
            selectable: list[Cut] = []
            unit = self._unit[nid]
            if unit is not None:
                selectable.append(unit)
            unit_boundary = unit.boundary if unit is not None else None
            for cut in self._merged[nid]:
                if cut.boundary != unit_boundary:
                    selectable.append(cut)
            result[nid] = CutSet(nid, self._trivial[nid], selectable)
            self.stats.per_node_counts[nid] = len(selectable)
            if not node.is_boundary:
                self.stats.nodes_processed += 1
        # The packed rows only matter while cuts are merge ingredients;
        # downstream consumers read the int masks. Drop the matrices so
        # the enumerator does not double the mask memory footprint.
        for cuts in self._merged.values():
            for cut in cuts:
                if "_rows" in cut.__dict__:
                    object.__delattr__(cut, "_rows")
        for unit in self._unit.values():
            if unit is not None and "_rows" in unit.__dict__:
                object.__delattr__(unit, "_rows")
        return result

    # ------------------------------------------------------------------
    def _make_trivial(self, nid: int) -> Cut:
        return Cut(
            root=nid,
            boundary=frozenset({nid}),
            masks=tuple(self.calc.leaf_masks(nid)),
            kind="trivial",
        )

    def _make_unit(self, nid: int) -> Cut:
        """The standalone-operator cut: boundary = direct non-const inputs."""
        graph = self.graph
        node = graph.node(nid)
        if node.is_blackbox:
            pairs = {
                (op.source, op.distance)
                for op in node.operands
                if graph.node(op.source).kind is not OpKind.CONST
            }
            return Cut(nid, frozenset(p[0] for p in pairs),
                       tuple([0] * node.width), kind="unit",
                       entries=tuple(sorted(pairs)))
        # Rows are keyed by operand slot (not source id), which keeps two
        # uses of the same node at different iteration distances distinct.
        pairs = set()
        slot_rows: dict[int, object] = {}
        for slot in word_dep_sources(graph, node):
            op = node.operands[slot]
            if graph.node(op.source).kind is OpKind.CONST:
                continue
            pairs.add((op.source, op.distance))
            slot_rows[slot] = self._pcalc.leaf_rows(op.source, op.distance)
        rows = self._pcalc.transfer(node, slot_rows)
        cut = Cut(nid, frozenset(p[0] for p in pairs),
                  tuple(rows_to_ints(rows)), kind="unit",
                  entries=tuple(sorted(pairs)))
        object.__setattr__(cut, "_rows", rows)
        object.__setattr__(cut, "_max_support", max_popcount(rows))
        return cut

    def _cut_rows(self, cut: Cut):
        """Packed rows of a cut's masks, cached on the cut instance."""
        rows = cut.__dict__.get("_rows")
        if rows is None:
            rows = ints_to_rows(cut.masks, self._pcalc.words)
            object.__setattr__(cut, "_rows", rows)
        return rows

    def _update_node(self, nid: int) -> bool:
        """Recompute the cut set of one node; True if it changed (Alg. 1 l.7-10)."""
        graph = self.graph
        node = graph.node(nid)

        if self._unit[nid] is None:
            self._unit[nid] = self._make_unit(nid)
            changed = True
        else:
            changed = False

        if not node.is_mappable or node.kind is OpKind.OUTPUT:
            return changed
        if self.max_cuts == 0:
            return changed  # MILP-base: unit cuts only, no cone growth

        # Build the per-slot choice lists (Eq. 1: one cut per input). Each
        # choice is (slot, cut, edge_distance): the distance matters when the
        # operand enters as a boundary value (registered vs combinational),
        # and only distance-0 operands may be absorbed (DESIGN.md note 5).
        slots = word_dep_sources(graph, node)
        choice_lists: list[list[tuple[int, Cut, int]]] = []
        for slot in slots:
            op = node.operands[slot]
            src_node = graph.node(op.source)
            if src_node.kind is OpKind.CONST:
                continue
            choices = [(slot, self._trivial[op.source], op.distance)]
            if op.distance == 0 and src_node.is_mappable \
                    and src_node.kind is not OpKind.OUTPUT:
                unit = self._unit[op.source]
                if unit is not None and unit.feasible(self.k):
                    choices.append((slot, unit, 0))
                choices.extend((slot, c, 0) for c in self._merged[op.source]
                               if c.feasible(self.k))
            choice_lists.append(choices)

        total = 1
        for lst in choice_lists:
            total *= len(lst)
        if total > self.max_candidates:
            self.stats.capped_nodes += 1
            choice_lists = [lst[: max(2, self.max_candidates // 1000)]
                            for lst in choice_lists]

        seen: dict[tuple, Cut] = {c.entries: c for c in self._merged[nid]}
        new_cuts: list[Cut] = list(self._merged[nid])
        pcalc = self._pcalc
        for combo in itertools.product(*choice_lists):
            self.stats.candidates_generated += 1
            pairs: set[tuple[int, int]] = set()
            slot_rows: dict[int, object] = {}
            interior: set[int] = set()
            for slot, cut, edge_dist in combo:
                if cut.is_trivial:
                    pairs.add((cut.root, edge_dist))
                    slot_rows[slot] = pcalc.leaf_rows(cut.root, edge_dist)
                else:
                    pairs.update(cut.entries)
                    slot_rows[slot] = self._cut_rows(cut)
                    interior.add(cut.root)
                    interior.update(cut.interior)
            entries = tuple(sorted(pairs))
            if entries in seen:
                continue
            boundary = frozenset(p[0] for p in pairs)
            # A node may be absorbed through one operand *and* enter as a
            # (typically registered) boundary value through another; it then
            # appears in both interior and boundary, keeping its co-timing
            # obligation. Subtracting the boundary here once created covers
            # whose recomputed logic could be scheduled before its inputs.
            rows = pcalc.transfer(node, slot_rows)
            support = max_popcount(rows)
            if support > self.k:
                continue
            candidate = Cut(nid, boundary, tuple(rows_to_ints(rows)),
                            kind="merged", interior=frozenset(interior),
                            entries=entries)
            object.__setattr__(candidate, "_rows", rows)
            object.__setattr__(candidate, "_max_support", support)
            seen[entries] = candidate
            new_cuts.append(candidate)

        new_cuts = self._prune(new_cuts)
        if {c.entries for c in new_cuts} != {c.entries for c in self._merged[nid]}:
            self._merged[nid] = new_cuts
            changed = True
        self.stats.cuts_kept = sum(len(v) for v in self._merged.values())
        return changed

    def _prune(self, cuts: list[Cut]) -> list[Cut]:
        """Drop dominated cuts, then cap (small support / boundary first)."""
        cuts = sorted(cuts, key=lambda c: (len(c.boundary), c.max_support,
                                           tuple(sorted(c.boundary))))
        kept: list[Cut] = []
        for cut in cuts:
            if any(k.boundary <= cut.boundary for k in kept):
                continue
            kept.append(cut)
        kept.sort(key=lambda c: (c.max_support, len(c.boundary),
                                 tuple(sorted(c.boundary))))
        return kept[: self.max_cuts]


def enumerate_cuts(graph: CDFG, k: int, max_cuts: int = 12,
                   max_candidates: int = 20000) -> dict[int, CutSet]:
    """Convenience wrapper: run a :class:`CutEnumerator` and return its cuts."""
    return CutEnumerator(graph, k, max_cuts, max_candidates).run()


def prune_cut_sets(graph: CDFG, cuts: dict[int, CutSet], device,
                   budget: float) -> tuple[dict[int, CutSet], int]:
    """Drop provably-useless cuts before the MILP is even built.

    Two conservative rules, each preserving at least one optimal schedule
    (see docs/performance.md):

    * **over-budget** — a merged cut whose mapped delay exceeds the
      usable clock budget can never satisfy Eq. 8 (``L >= 0``), so
      selecting it is infeasible; drop it.
    * **dominance** — a merged cut C is dominated by a sibling C' with
      the *same interior* (identical coverage), ``entries(C') subset of
      entries(C)`` (weaker chain/liveness obligations), and
      delay/LUT-cost no worse; any schedule selecting C stays feasible
      and no more expensive selecting C' instead.

    Unit cuts are never dropped: they are the fallback the coverage
    constraints and forced roots rely on, and an over-budget *unit* cut
    means the node itself cannot meet timing — a diagnosis the solver
    should surface, not the pruner. Returns the pruned mapping (same
    object, mutated CutSets) and the number of cuts removed.
    """
    from ..tech.area import AreaModel
    from ..tech.delay import DelayModel

    delay_model = DelayModel(device, graph)
    area_model = AreaModel(device, graph)
    dropped = 0
    for nid, cs in cuts.items():
        if len(cs.selectable) <= 1:
            continue
        node = graph.node(nid)
        scored = [
            (cut, delay_model.cut_delay(node, cut),
             area_model.cut_lut_cost(node, cut))
            for cut in cs.selectable
        ]
        kept: list[Cut] = []
        for i, (cut, delay, cost) in enumerate(scored):
            if cut.is_unit:
                kept.append(cut)
                continue
            if delay > budget + 1e-9:
                dropped += 1
                continue
            entries = set(cut.entries)

            def dominates(j: int) -> bool:
                other, d2, c2 = scored[j]
                if (other is cut or other.interior != cut.interior
                        or not set(other.entries) <= entries
                        or d2 > delay + 1e-9 or c2 > cost + 1e-9):
                    return False
                # Ties broken by position so equal twins cannot
                # eliminate each other: only the earlier one survives.
                strict = (set(other.entries) < entries
                          or d2 < delay - 1e-9 or c2 < cost - 1e-9)
                return strict or j < i

            if any(dominates(j) for j in range(len(scored))):
                dropped += 1
            else:
                kept.append(cut)
        if kept:
            cs.selectable = kept
    return cuts, dropped
