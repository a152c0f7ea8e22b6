"""Experiment harnesses: Table 1, Table 2, Figure 1, Figure 2, ablations."""

from .ablation import (
    format_alpha_beta,
    format_bitblast,
    format_heuristic_gap,
    format_k_sweep,
    format_xorr_depth,
    sweep_alpha_beta,
    sweep_bitblast,
    sweep_heuristic_gap,
    sweep_k,
    sweep_xorr_depth,
)
from .figure1 import build_figure1_kernel, format_figure1, run_figure1
from .figure2 import build_figure2_kernel, format_figure2, run_figure2
from .flows import ALL_METHODS, METHODS, FlowResult, run_flow
from .reporting import percent, render_table
from .table1 import Table1Result, Table1Row, format_table1, run_table1
from .table2 import Table2Result, Table2Row, format_table2, run_table2

__all__ = [
    "FlowResult",
    "ALL_METHODS",
    "METHODS",
    "Table1Result",
    "Table1Row",
    "Table2Result",
    "Table2Row",
    "build_figure1_kernel",
    "build_figure2_kernel",
    "format_alpha_beta",
    "format_figure1",
    "format_figure2",
    "format_bitblast",
    "format_heuristic_gap",
    "format_k_sweep",
    "format_table1",
    "format_table2",
    "format_xorr_depth",
    "percent",
    "render_table",
    "run_figure1",
    "run_figure2",
    "run_flow",
    "run_table1",
    "run_table2",
    "sweep_alpha_beta",
    "sweep_bitblast",
    "sweep_heuristic_gap",
    "sweep_k",
    "sweep_xorr_depth",
]
