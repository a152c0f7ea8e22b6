"""Figure 1 — the Reed–Solomon encoder scheduling walkthrough.

Reproduces the paper's motivating example on the K=4 teaching device
(target clock 5 ns, one LUT level = 2 ns): the additive-delay flow needs
multiple pipeline stages and LUTs, while the mapping-aware schedule chains
two LUT levels in a single cycle — "2 LUTs and 1 pipeline stage".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import SchedulerConfig
from ..hw.cost import HardwareReport
from ..ir.builder import DFGBuilder
from ..ir.dot import to_dot
from ..ir.graph import CDFG
from ..tech.device import TUTORIAL4, Device
from .flows import run_flow

__all__ = ["build_figure1_kernel", "run_figure1", "format_figure1",
           "Figure1Result"]


def build_figure1_kernel(width: int = 2) -> CDFG:
    """The Figure 1 DFG: shift, XOR, sign test, conditional update.

    At word width 2 this is exactly the graph of the paper's Figure 2 cut
    enumeration; Figure 1 shows its schedule.
    """
    b = DFGBuilder("rs_encoder", width=width)
    s = b.input("s", width)
    t = b.input("t", width)
    a = s >> 1                      # A: each bit depends on one shifted bit
    x = t ^ a                       # B: bitwise combine
    c = x.sge(0)                    # C: sign test -> depends on MSB only
    d = t ^ s                       # D: feedback term
    e = b.mux(c, d, t)              # E: conditional select
    b.output(e, "out")
    return b.build()


@dataclass
class Figure1Result:
    """Reports + schedules for the walkthrough."""

    kernel: CDFG
    reports: dict[str, HardwareReport]
    schedules: dict[str, object]
    dots: dict[str, str]


def run_figure1(device: Device = TUTORIAL4, tcp: float = 5.0,
                width: int = 2) -> Figure1Result:
    """Run the three flows on the Figure 1 kernel."""
    config = SchedulerConfig(ii=1, tcp=tcp, time_limit=60.0)
    reports = {}
    schedules = {}
    dots = {}
    for method in ("hls-tool", "milp-base", "milp-map"):
        flow = run_flow(build_figure1_kernel(width), method, device, config,
                        design="fig1")
        reports[method] = flow.report
        schedules[method] = flow.schedule
        dots[method] = to_dot(
            flow.schedule.graph,
            cycle_of=flow.schedule.cycle,
            highlight_roots=set(flow.schedule.cover),
        )
    return Figure1Result(kernel=build_figure1_kernel(width),
                         reports=reports, schedules=schedules, dots=dots)


def format_figure1(result: Figure1Result) -> str:
    """Human-readable comparison in the spirit of Figure 1's caption."""
    lines = [
        "Figure 1: pipeline schedule for the Reed-Solomon encoder kernel",
        f"(target clock 5 ns on device {TUTORIAL4.name}; "
        "one LUT level = 2 ns)",
        "",
    ]
    for method, label in (("hls-tool", "HLS tool (additive delays)"),
                          ("milp-base", "MILP-base (exact, additive)"),
                          ("milp-map", "MILP-map (mapping-aware)")):
        r = result.reports[method]
        sched = result.schedules[method]
        lines.append(
            f"{label}: {r.luts} LUT(s), {max(sched.latency, 1)} stage(s), "
            f"{r.ffs} FF bit(s), CP {r.cp:.2f} ns"
        )
        lines.append(sched.describe())
        lines.append("")
    mmap = result.reports["milp-map"]
    base = result.reports["hls-tool"]
    lines.append(
        f"mapping-aware scheduling: {base.luts} -> {mmap.luts} LUTs and "
        f"{result.schedules['hls-tool'].latency} -> "
        f"{result.schedules['milp-map'].latency} stage(s)"
    )
    return "\n".join(lines)
