"""Table 2: efficacy of CRUSADE.

For each example: the architecture CRUSADE derives *without* dynamic
reconfiguration (each programmable device has one mode) versus *with*
it -- #PEs, #links, CPU seconds, dollar cost, and the cost savings
percentage.  The paper reports savings of 25.9-56.7 %.

The row class, the with/without runner and the layout are shared with
Table 3 (:mod:`repro.bench.table3`), which swaps in CRUSADE-FT.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Union

from repro.core.config import CrusadeConfig
from repro.core.crusade import crusade
from repro.core.report import CoSynthesisResult
from repro.graph.spec import SystemSpec
from repro.resources.catalog import default_library
from repro.resources.library import ResourceLibrary
from repro.bench.examples import build_example
from repro.bench.runner import pct, render_table

if TYPE_CHECKING:
    from repro.core.crusade_ft import FtCoSynthesisResult

#: Default example scale for benchmark runs; override with the
#: REPRO_SCALE environment variable (1.0 = the paper's task counts).
DEFAULT_SCALE = 0.05


def bench_scale() -> float:
    """The scale benchmarks run at (REPRO_SCALE env, default 0.05)."""
    return float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))


@dataclass
class ComparisonRow:
    """One example's with/without-reconfiguration comparison (a row
    of Table 2, or of Table 3 with fault-tolerant results)."""

    example: str
    tasks: int
    without: Union[CoSynthesisResult, "FtCoSynthesisResult"]
    with_reconfig: Union[CoSynthesisResult, "FtCoSynthesisResult"]

    @property
    def savings_pct(self) -> float:
        """Cost savings of dynamic reconfiguration, percent."""
        if self.without.cost <= 0:
            return 0.0
        return (self.without.cost - self.with_reconfig.cost) / self.without.cost * 100.0

    def cells(self) -> List[object]:
        return [
            "%s/(%d)" % (self.example, self.tasks),
            self.without.n_pes,
            self.without.n_links,
            "%.1f" % self.without.cpu_seconds,
            "%.0f" % self.without.cost,
            self.with_reconfig.n_pes,
            self.with_reconfig.n_links,
            "%.1f" % self.with_reconfig.cpu_seconds,
            "%.0f" % self.with_reconfig.cost,
            pct(self.savings_pct),
        ]


def run_comparison(
    example: str,
    synthesize: Callable[..., Any],
    scale: Optional[float] = None,
    library: Optional[ResourceLibrary] = None,
    config: Optional[CrusadeConfig] = None,
    spec: Optional[SystemSpec] = None,
) -> ComparisonRow:
    """Synthesize one example with and without reconfiguration.

    ``synthesize`` is :func:`~repro.core.crusade.crusade` or a
    CRUSADE-FT equivalent, called as ``synthesize(spec, library=,
    config=)`` for the baseline and with ``baseline=`` for the
    reconfiguring run.  The baseline runs under the caller's
    ``config`` with only ``reconfiguration`` turned off, as the merge
    stage's own baseline does.
    """
    if scale is None:
        scale = bench_scale()
    if library is None:
        library = default_library()
    if config is None:
        config = CrusadeConfig()
    if spec is None:
        spec = build_example(example, scale=scale, library=library)
    baseline_config = replace(config, reconfiguration=False)
    without = synthesize(spec, library=library, config=baseline_config)
    with_reconfig = synthesize(
        spec, library=library, config=config, baseline=without
    )
    return ComparisonRow(
        example=example,
        tasks=spec.total_tasks,
        without=without,
        with_reconfig=with_reconfig,
    )


def run_table2_row(
    example: str,
    scale: Optional[float] = None,
    library: Optional[ResourceLibrary] = None,
    config: Optional[CrusadeConfig] = None,
    spec: Optional[SystemSpec] = None,
) -> ComparisonRow:
    """One Table 2 row: CRUSADE with and without reconfiguration."""
    return run_comparison(example, crusade, scale, library, config, spec)


def render_comparison(title: str, rows: Iterable[ComparisonRow]) -> str:
    """The paper's Table 2/3 layout under ``title``."""
    headers = [
        "Example/(tasks)",
        "PEs",
        "links",
        "CPU s",
        "Cost $",
        "PEs'",
        "links'",
        "CPU s'",
        "Cost' $",
        "Savings %",
    ]
    return render_table(
        title + " (left: without dynamic reconfiguration, right: with)",
        headers,
        [row.cells() for row in rows],
    )


def render_table2(rows: Iterable[ComparisonRow]) -> str:
    """The paper's Table 2."""
    return render_comparison("Table 2: Efficacy of CRUSADE", rows)
