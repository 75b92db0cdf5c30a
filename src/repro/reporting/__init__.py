"""Benchmark harness reporting utilities."""

from .ascii_chart import bar_chart, line_chart, sparkline
from .table import render_breakdown, render_series, render_table

__all__ = [
    "bar_chart",
    "line_chart",
    "sparkline",
    "render_breakdown",
    "render_series",
    "render_table",
]
