"""Benchmark harness: regenerate every table and figure of the paper.

* :mod:`repro.bench.examples` -- synthetic reconstructions of the
  eight proprietary telecom examples of Tables 2/3 (A1TR ... NG XM);
* :mod:`repro.bench.table1` -- the ERUF/EPUF delay-management sweep;
* :mod:`repro.bench.table2` -- CRUSADE with vs without dynamic
  reconfiguration;
* :mod:`repro.bench.table3` -- the same comparison for CRUSADE-FT;
* :mod:`repro.bench.figure2` -- the three-task-graph motivating
  example of Figure 2;
* :mod:`repro.bench.runner` -- shared row/series rendering.
"""

from repro.bench.examples import (
    EXAMPLE_NAMES,
    ExampleProfile,
    build_example,
    example_profile,
)
from repro.bench.table1 import Table1Cell, run_table1, render_table1
from repro.bench.table2 import ComparisonRow, run_table2_row, render_table2
from repro.bench.table3 import run_table3_row, render_table3
from repro.bench.figure2 import Figure2Outcome, run_figure2

__all__ = [
    "EXAMPLE_NAMES",
    "ExampleProfile",
    "build_example",
    "example_profile",
    "Table1Cell",
    "run_table1",
    "render_table1",
    "ComparisonRow",
    "run_table2_row",
    "render_table2",
    "run_table3_row",
    "render_table3",
    "Figure2Outcome",
    "run_figure2",
]
