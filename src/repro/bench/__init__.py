"""Benchmark harness regenerating Table I and the ablation experiments."""

from .reporting import comparison_rows, format_table, paper_comparison
from .runner import (
    ComparisonResult,
    RunRecord,
    compare_strategies,
    factor_check,
    run_workload,
)
from .workloads import (
    DEFAULT_SHOR_SUITE,
    DEFAULT_SUPREMACY_SUITE,
    EXTENDED_SHOR_SUITE,
    EXTENDED_SUPREMACY_SUITE,
    PAPER_SHOR_ROWS,
    PAPER_SUPREMACY_ROWS,
    PaperRow,
    Workload,
    shor_workload,
    supremacy_workload,
)

__all__ = [
    "ComparisonResult",
    "DEFAULT_SHOR_SUITE",
    "DEFAULT_SUPREMACY_SUITE",
    "EXTENDED_SHOR_SUITE",
    "EXTENDED_SUPREMACY_SUITE",
    "PAPER_SHOR_ROWS",
    "PAPER_SUPREMACY_ROWS",
    "PaperRow",
    "RunRecord",
    "Workload",
    "compare_strategies",
    "comparison_rows",
    "factor_check",
    "format_table",
    "paper_comparison",
    "run_workload",
    "shor_workload",
    "supremacy_workload",
]
