"""Benchmark harness shared by the per-figure/table benchmarks.

:mod:`repro.bench.harness` measures real substrate kernels into
:class:`~repro.frameworks.base.WorkloadProfile` objects and provides
plain-text table/series printers so every benchmark emits the same
rows and series the paper reports.
"""

from repro.bench.harness import (
    format_series,
    format_table,
    measure_workload,
)

__all__ = [
    "measure_workload",
    "format_table",
    "format_series",
]
