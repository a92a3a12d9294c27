"""Rendering of the paper's evaluation tables."""

from .tables import (PAPER_COMMANDS, PAPER_TIMES, TableIndex,
                     condition_table, drift_admission_table, percentile,
                     policy_comparison_table,
                     shard_contention_table, stability_table, table_5_01,
                     table_5_02, table_5_03, table_5_04, table_5_05,
                     table_5_06, table_5_07, table_5_08, table_5_09,
                     table_5_10, task_timing_table, workload_report_table)

__all__ = [
    "PAPER_COMMANDS", "PAPER_TIMES", "TableIndex", "condition_table",
    "drift_admission_table", "percentile", "policy_comparison_table",
    "shard_contention_table", "stability_table",
    "table_5_01", "table_5_02", "table_5_03", "table_5_04", "table_5_05",
    "table_5_06", "table_5_07", "table_5_08", "table_5_09", "table_5_10",
    "task_timing_table", "workload_report_table",
]
