"""Packed-bitmask support kernels.

The reference :class:`~repro.bitdeps.support.SupportCalculator` represents a
per-bit support set as a Python big int and applies DEP one output bit at a
time. This module keeps the exact same global bit numbering but packs every
mask into a row of ``uint64`` words, so the supports of all output bits of a
node form a ``(width, words)`` ndarray and one DEP *transfer* per node
replaces ``width`` calls into :func:`~repro.bitdeps.dep.dep_bits`:

* bitwise class — row-wise OR of the operand matrices, truncated to widths;
* shifts / SLICE / CONCAT — row re-indexing (pure slicing, no bit math);
* ADD/SUB/NEG — a prefix-OR (``np.bitwise_or.accumulate``) indexed by
  ``min(j, w-1)``, the carry-chain ranges of Sec. 3.1 in one shot;
* comparisons — an OR-reduction broadcast to every output bit, with the
  sign-test-against-constant-zero refinement preserved bit for bit;
* VSHL/VSHR — prefix/suffix OR of the data operand plus the reduced amount
  operand.

Each matrix carries its **active word range** ``[lo, hi)`` (:class:`Rows`)
and every kernel touches only that slice. This matches the cost model of the
reference big ints — a Python int only pays for words up to its top set bit
— so designs with a huge global bit space but narrow cones (e.g. XORR512's
16k-bit space) stay fast instead of paying the full row width per OR.

Word order is little-endian, so ``int.from_bytes(row.tobytes(), "little")``
reproduces the reference Python-int mask exactly; the parity suite
(tests/test_vectorize.py) pins this for every op class. Popcounts use
``np.bitwise_count`` when the installed numpy has it (>= 2.0) and a uint8
lookup table otherwise.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..errors import CutError
from ..ir.graph import CDFG
from ..ir.node import Node
from ..ir.types import OpClass, OpKind
from .dep import _is_const_zero

__all__ = [
    "Rows",
    "PackedSupportCalculator",
    "popcount_rows",
    "max_popcount",
    "rows_to_ints",
    "ints_to_rows",
]

_U64 = np.dtype("<u8")

# uint8 popcount lookup table; fallback for numpy < 2.0 (no np.bitwise_count).
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


class Rows:
    """A packed ``(n, words)`` uint64 matrix with its active word range.

    Words outside ``[lo, hi)`` are guaranteed zero; kernels only read and
    write the active slice, so per-operation cost tracks the *span* of the
    set bits (like the reference Python big ints) rather than the full
    global bit space.
    """

    __slots__ = ("mat", "lo", "hi")

    def __init__(self, mat: np.ndarray, lo: int, hi: int) -> None:
        self.mat = mat
        self.lo = lo
        self.hi = max(hi, lo)

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo


def popcount_rows(rows: Rows | np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a packed matrix."""
    if isinstance(rows, Rows):
        mat = rows.mat[:, rows.lo:rows.hi]
    else:
        mat = rows
    if mat.shape[1] == 0:
        return np.zeros(mat.shape[0], dtype=np.int64)
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(mat).sum(axis=1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(mat).view(np.uint8).reshape(
        mat.shape[0], -1)
    return _POP8[as_bytes].sum(axis=1, dtype=np.int64)


def max_popcount(rows: Rows | np.ndarray) -> int:
    """Largest per-row popcount (0 for an empty matrix)."""
    mat = rows.mat if isinstance(rows, Rows) else rows
    if mat.shape[0] == 0:
        return 0
    return int(popcount_rows(rows).max())


def rows_to_ints(rows: Rows | np.ndarray) -> list[int]:
    """Convert packed rows back to the reference Python-int masks."""
    if isinstance(rows, Rows):
        mat, lo, hi = rows.mat, rows.lo, rows.hi
        if hi <= lo:
            return [0] * mat.shape[0]
        data = np.ascontiguousarray(mat[:, lo:hi], dtype=_U64)
        shift = lo * 64
    else:
        data = np.ascontiguousarray(rows, dtype=_U64)
        shift = 0
        if data.shape[1] == 0:
            return [0] * data.shape[0]
    stride = data.shape[1] * 8
    raw = data.tobytes()
    return [
        int.from_bytes(raw[i * stride:(i + 1) * stride], "little") << shift
        for i in range(data.shape[0])
    ]


def ints_to_rows(masks: Iterable[int], words: int) -> Rows:
    """Pack reference Python-int masks into a :class:`Rows` matrix."""
    masks = list(masks)
    mat = np.zeros((len(masks), words), dtype=_U64)
    nbytes = words * 8
    hi = 0
    for i, mask in enumerate(masks):
        if mask:
            mat[i] = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=_U64)
            hi = max(hi, (mask.bit_length() + 63) >> 6)
    return Rows(mat, 0, hi)


class PackedSupportCalculator:
    """Packed twin of :class:`~repro.bitdeps.support.SupportCalculator`.

    Uses the identical global bit numbering — bit ``b`` of node ``n`` at
    iteration distance ``d`` lives at ``offset[n] + d * width + b`` — so
    masks round-trip bit-exactly between the two representations.
    """

    def __init__(self, graph: CDFG) -> None:
        self.graph = graph
        max_dist = 0
        for node in graph:
            for op in node.operands:
                max_dist = max(max_dist, op.distance)
        self.max_distance = max_dist
        self._offset: dict[int, int] = {}
        total = 0
        for nid in graph.node_ids:
            self._offset[nid] = total
            total += graph.node(nid).width * (max_dist + 1)
        self.total_bits = total
        self.words = max(1, (total + 63) // 64)
        self._leaf_cache: dict[tuple[int, int], Rows] = {}
        self._width_cache: dict[int, list[int]] = {}

    # -- representation ------------------------------------------------
    def global_index(self, nid: int, bit: int, distance: int = 0) -> int:
        return self._offset[nid] + distance * self.graph.node(nid).width + bit

    def zeros(self, n: int) -> Rows:
        return Rows(np.zeros((n, self.words), dtype=_U64), 0, 0)

    def leaf_rows(self, nid: int, distance: int = 0) -> Rows:
        """Packed equivalent of ``SupportCalculator.leaf_masks``."""
        key = (nid, distance)
        cached = self._leaf_cache.get(key)
        if cached is None:
            node = self.graph.node(nid)
            base = self._offset[nid] + distance * node.width
            mat = np.zeros((node.width, self.words), dtype=_U64)
            idx = base + np.arange(node.width)
            mat[np.arange(node.width), idx >> 6] = np.uint64(1) << (
                idx & 63
            ).astype(_U64)
            mat.setflags(write=False)
            cached = Rows(mat, base >> 6, ((base + node.width - 1) >> 6) + 1)
            self._leaf_cache[key] = cached
        return cached

    def _widths(self, node: Node) -> list[int]:
        widths = self._width_cache.get(node.nid)
        if widths is None:
            widths = [self.graph.node(op.source).width
                      for op in node.operands]
            self._width_cache[node.nid] = widths
        return widths

    # -- DEP transfer --------------------------------------------------
    def transfer(self, node: Node, slot_rows: Mapping[int, Rows]) -> Rows:
        """Support rows of ``node`` given packed rows per operand *slot*.

        Slots absent from ``slot_rows`` contribute nothing (constant
        operands are absorbed for free) — exactly the reference
        :meth:`SupportCalculator.supports` semantics.
        """
        graph = self.graph
        kind = node.kind
        if node.op_class is OpClass.BLACKBOX:
            raise CutError(f"DEP undefined for black-box node {node.nid}")
        W = node.width
        out = np.zeros((W, self.words), dtype=_U64)
        olo, ohi = self.words, 0
        if kind in (OpKind.INPUT, OpKind.CONST):
            return Rows(out, 0, 0)
        widths = self._widths(node)

        def rows(slot: int) -> Rows | None:
            r = slot_rows.get(slot)
            return None if r is None or r.empty else r

        def done() -> Rows:
            return Rows(out, olo, ohi) if ohi > olo else Rows(out, 0, 0)

        if kind in (OpKind.OUTPUT, OpKind.NOT, OpKind.TRUNC, OpKind.ZEXT):
            r = rows(0)
            if r is not None:
                n = min(W, widths[0])
                out[:n, r.lo:r.hi] |= r.mat[:n, r.lo:r.hi]
                olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind in (OpKind.AND, OpKind.OR, OpKind.XOR):
            for slot in (0, 1):
                r = rows(slot)
                if r is not None:
                    n = min(W, widths[slot])
                    out[:n, r.lo:r.hi] |= r.mat[:n, r.lo:r.hi]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind is OpKind.MUX:
            r = rows(0)
            if r is not None:
                out[:, r.lo:r.hi] |= r.mat[0, r.lo:r.hi]
                olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            for slot in (1, 2):
                r = rows(slot)
                if r is not None:
                    n = min(W, widths[slot])
                    out[:n, r.lo:r.hi] |= r.mat[:n, r.lo:r.hi]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind is OpKind.SHL:
            r = rows(0)
            if r is not None:
                n = min(W - node.amount, widths[0])
                if n > 0:
                    out[node.amount:node.amount + n, r.lo:r.hi] |= \
                        r.mat[:n, r.lo:r.hi]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind in (OpKind.SHR, OpKind.SLICE):
            r = rows(0)
            if r is not None:
                n = min(W, widths[0] - node.amount)
                if n > 0:
                    out[:n, r.lo:r.hi] |= \
                        r.mat[node.amount:node.amount + n, r.lo:r.hi]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind is OpKind.CONCAT:
            r = rows(0)
            if r is not None:
                n = min(W, widths[0])
                out[:n, r.lo:r.hi] |= r.mat[:n, r.lo:r.hi]
                olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            r = rows(1)
            if r is not None and W > widths[0]:
                n = min(W - widths[0], widths[1])
                out[widths[0]:widths[0] + n, r.lo:r.hi] |= r.mat[:n, r.lo:r.hi]
                olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind in (OpKind.ADD, OpKind.SUB, OpKind.NEG):
            slots = (0,) if kind is OpKind.NEG else (0, 1)
            for slot in slots:
                r = rows(slot)
                if r is not None:
                    prefix = np.bitwise_or.accumulate(
                        r.mat[:, r.lo:r.hi], axis=0)
                    idx = np.minimum(np.arange(W), widths[slot] - 1)
                    out[:, r.lo:r.hi] |= prefix[idx]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind in (OpKind.SLT, OpKind.SGE):
            if _is_const_zero(graph, node, 1):
                r = rows(0)
                if r is not None:
                    out[:, r.lo:r.hi] |= r.mat[widths[0] - 1, r.lo:r.hi]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
                return done()
            if _is_const_zero(graph, node, 0):
                r = rows(1)
                if r is not None:
                    out[:, r.lo:r.hi] |= r.mat[widths[1] - 1, r.lo:r.hi]
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
                return done()
            for slot in (0, 1):
                r = rows(slot)
                if r is not None:
                    out[:, r.lo:r.hi] |= np.bitwise_or.reduce(
                        r.mat[:, r.lo:r.hi], axis=0)
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE):
            for slot in (0, 1):
                r = rows(slot)
                if r is not None:
                    out[:, r.lo:r.hi] |= np.bitwise_or.reduce(
                        r.mat[:, r.lo:r.hi], axis=0)
                    olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()
        if kind in (OpKind.VSHL, OpKind.VSHR):
            r = rows(0)
            if r is not None:
                if kind is OpKind.VSHL:
                    prefix = np.bitwise_or.accumulate(
                        r.mat[:, r.lo:r.hi], axis=0)
                    out[:, r.lo:r.hi] |= prefix[
                        np.minimum(np.arange(W), widths[0] - 1)]
                else:
                    suffix = np.bitwise_or.accumulate(
                        r.mat[::-1, r.lo:r.hi], axis=0)[::-1]
                    n = min(W, widths[0])
                    out[:n, r.lo:r.hi] |= suffix[:n]
                olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            r = rows(1)
            if r is not None:
                out[:, r.lo:r.hi] |= np.bitwise_or.reduce(
                    r.mat[:, r.lo:r.hi], axis=0)
                olo, ohi = min(olo, r.lo), max(ohi, r.hi)
            return done()

        raise CutError(f"DEP not defined for {kind.value}")  # pragma: no cover

    def live_slots(self, node: Node) -> list[int]:
        """Operand slots with at least one DEP entry over all output bits.

        Mirrors which operands the reference ``supports`` recursion actually
        visits — dead slots (e.g. a SHL amount beyond the output width) are
        never recursed into and never distance-checked.
        """
        kind = node.kind
        if kind in (OpKind.INPUT, OpKind.CONST):
            return []
        widths = self._widths(node)
        W = node.width
        if kind in (OpKind.OUTPUT, OpKind.NOT, OpKind.TRUNC, OpKind.ZEXT,
                    OpKind.NEG):
            return [0] if min(W, widths[0]) > 0 else []
        if kind in (OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.ADD, OpKind.SUB,
                    OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE):
            return [s for s in (0, 1) if min(W, widths[s]) > 0]
        if kind is OpKind.MUX:
            return [0] + [s for s in (1, 2) if min(W, widths[s]) > 0]
        if kind is OpKind.SHL:
            return [0] if node.amount < W and widths[0] > 0 else []
        if kind in (OpKind.SHR, OpKind.SLICE):
            return [0] if node.amount < widths[0] and W > 0 else []
        if kind is OpKind.CONCAT:
            out = [0] if min(W, widths[0]) > 0 else []
            if W > widths[0] and widths[1] > 0:
                out.append(1)
            return out
        if kind in (OpKind.SLT, OpKind.SGE):
            if _is_const_zero(self.graph, node, 1):
                return [0]
            if _is_const_zero(self.graph, node, 0):
                return [1]
            return [s for s in (0, 1) if widths[s] > 0]
        if kind in (OpKind.VSHL, OpKind.VSHR):
            return [s for s in (0, 1) if widths[s] > 0]
        raise CutError(f"DEP not defined for {kind.value}")  # pragma: no cover

    # -- support queries ----------------------------------------------
    def supports_rows(
        self,
        target: int,
        boundary: Iterable[int],
        chosen: Mapping[int, Rows] | None = None,
    ) -> Rows:
        """Packed twin of ``SupportCalculator.supports``.

        Same recursion, same memoization, same ``CutError`` conditions (and
        messages) — but each node is expanded with one vectorized transfer
        instead of a per-bit DEP walk.
        """
        graph = self.graph
        bset = set(boundary)
        memo: dict[int, Rows] = {}
        if chosen:
            memo.update(chosen)
        in_progress: set[int] = set()

        def rec(nid: int) -> Rows:
            if nid in memo:
                return memo[nid]
            node = graph.node(nid)
            if nid in bset:
                result = self.leaf_rows(nid)
            elif node.kind is OpKind.CONST:
                result = self.zeros(node.width)
            elif node.is_blackbox or node.kind is OpKind.INPUT:
                raise CutError(
                    f"boundary does not enclose node {nid} ({node.kind.value})"
                )
            else:
                if nid in in_progress:
                    raise CutError(f"combinational cycle through node {nid}")
                in_progress.add(nid)
                slot_rows: dict[int, Rows] = {}
                for slot in self.live_slots(node):
                    op = node.operands[slot]
                    if op.distance != 0:
                        raise CutError(
                            f"cone crosses loop-carried edge into {op.source}"
                        )
                    slot_rows[slot] = rec(op.source)
                result = self.transfer(node, slot_rows)
                in_progress.discard(nid)
            memo[nid] = result
            return result

        return rec(target)

    def supports(
        self,
        target: int,
        boundary: Iterable[int],
        chosen: Mapping[int, list[int]] | None = None,
    ) -> list[int]:
        """Reference-format (Python big int) supports via the packed kernel."""
        packed_chosen = None
        if chosen:
            packed_chosen = {
                nid: masks
                if isinstance(masks, Rows)
                else ints_to_rows(masks, self.words)
                for nid, masks in chosen.items()
            }
        return rows_to_ints(self.supports_rows(target, boundary, packed_chosen))

    def max_support(self, target: int, boundary: Iterable[int]) -> int:
        return max_popcount(self.supports_rows(target, boundary))

    def is_k_feasible(self, target: int, boundary: Iterable[int], k: int) -> bool:
        try:
            return self.max_support(target, boundary) <= k
        except CutError:
            return False
