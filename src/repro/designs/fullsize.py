"""Paper-scale benchmark variants for the partition scheduler.

The Table 1 designs in :mod:`repro.designs.registry` are deliberately
sized so a monolithic MILP solve finishes in CI seconds. The paper's
actual workloads span 387-2503 CDFG nodes — far past the point where one
flat MILP blows the time cap. The variants here re-parameterize three
existing builders into that range; they exist to exercise
``SchedulerConfig(partition=...)`` (subgraph decomposition, see
docs/partitioning.md) end-to-end at realistic scale.

They live in their own registry (``FULLSIZE``), *not* in ``BENCHMARKS``:
the Table 1 registry is pinned to the paper's nine rows and every
replication harness iterates it, so full-size designs would silently
multiply experiment runtimes. CLI commands that accept a design name
(``repro schedule``, ``repro submit``) consult both.
"""

from __future__ import annotations

import random
from typing import Mapping

from .cordic import build_cordic
from .gfmul import build_gfmul
from .registry import BenchmarkSpec
from .xorr import build_xorr

__all__ = ["FULLSIZE", "get_fullsize", "fullsize_names"]

#: x^64 + x^4 + x^3 + x + 1 (a standard GF(2^64) reduction polynomial);
#: the builder carries the implicit x^64 term, so only the low bits appear.
GF64_POLY = 0x1B


def _uniform_stream(names_widths: list[tuple[str, int]]):
    def gen(rng: random.Random, n: int) -> list[Mapping[str, int]]:
        return [
            {name: rng.randrange(1 << width) for name, width in names_widths}
            for _ in range(n)
        ]
    return gen


FULLSIZE: dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    FULLSIZE[spec.name] = spec


_register(BenchmarkSpec(
    name="GFMUL64", domain="Kernel", kind="kernel",
    description="GF(2^64) multiplication, all 64 steps unrolled (~448 nodes)",
    build=lambda: build_gfmul(width=64, poly=GF64_POLY),
    stream=_uniform_stream([("a", 64), ("b", 64)]),
    notes="full-size variant of GFMUL for partition scheduling",
))
_register(BenchmarkSpec(
    name="CORDIC48", domain="Scientific Computing", kind="application",
    description="48 unrolled 32-bit CORDIC rotation stages (~613 nodes)",
    build=lambda: build_cordic(iterations=48, width=32),
    stream=_uniform_stream([("x", 32), ("y", 32), ("z", 32)]),
    notes="full-size variant of CORDIC for partition scheduling",
))
_register(BenchmarkSpec(
    name="XORR512", domain="Kernel", kind="kernel",
    description="XOR reduction over 512 16-bit elements (~1024 nodes)",
    build=lambda: build_xorr(elements=512, width=16),
    stream=_uniform_stream([(f"x{i}", 16) for i in range(512)]),
    notes="full-size variant of XORR for partition scheduling",
))
_register(BenchmarkSpec(
    name="XORR1251", domain="Kernel", kind="kernel",
    description="XOR reduction over 1251 16-bit elements (~2502 nodes, "
                "the top of the paper's size range)",
    build=lambda: build_xorr(elements=1251, width=16),
    stream=_uniform_stream([(f"x{i}", 16) for i in range(1251)]),
    notes="full-size variant of XORR for partition scheduling",
))


def get_fullsize(name: str) -> BenchmarkSpec:
    """Look up a full-size variant by name (case-insensitive)."""
    from ..errors import ExperimentError

    key = name.upper()
    if key not in FULLSIZE:
        raise ExperimentError(
            f"unknown full-size design {name!r}; "
            f"available: {', '.join(FULLSIZE)}"
        )
    return FULLSIZE[key]


def fullsize_names() -> list[str]:
    """All full-size variant names, registration order."""
    return list(FULLSIZE)
