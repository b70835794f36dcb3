"""Table 3: efficacy of CRUSADE-FT.

Fault-tolerant co-synthesis with versus without dynamic
reconfiguration on the same eight examples.  The paper reports savings
of 30.7-53.2 %, with FT architectures costlier than Table 2's.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.core.config import CrusadeConfig
from repro.core.crusade_ft import FtConfig, crusade_ft
from repro.graph.spec import SystemSpec
from repro.resources.library import ResourceLibrary
from repro.bench.table2 import ComparisonRow, render_comparison, run_comparison


def run_table3_row(
    example: str,
    scale: Optional[float] = None,
    library: Optional[ResourceLibrary] = None,
    config: Optional[CrusadeConfig] = None,
    ft_config: Optional[FtConfig] = None,
    spec: Optional[SystemSpec] = None,
) -> ComparisonRow:
    """One Table 3 row: CRUSADE-FT with and without reconfiguration."""
    if ft_config is None:
        ft_config = FtConfig()
    synthesize = partial(crusade_ft, ft_config=ft_config)
    return run_comparison(example, synthesize, scale, library, config, spec)


def render_table3(rows: Iterable[ComparisonRow]) -> str:
    """The paper's Table 3."""
    return render_comparison("Table 3: Efficacy of CRUSADE-FT", rows)
