"""Table 2: efficacy of CRUSADE.

For each example: the architecture CRUSADE derives *without* dynamic
reconfiguration (each programmable device has one mode) versus *with*
it -- #PEs, #links, CPU seconds, dollar cost, and the cost savings
percentage.  The paper reports savings of 25.9-56.7 %.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

from repro.core.config import CrusadeConfig
from repro.core.crusade import crusade
from repro.core.report import CoSynthesisResult
from repro.graph.spec import SystemSpec
from repro.resources.catalog import default_library
from repro.resources.library import ResourceLibrary
from repro.bench.examples import EXAMPLE_NAMES, build_example
from repro.bench.runner import pct, render_table

#: Default example scale for benchmark runs; override with the
#: REPRO_SCALE environment variable (1.0 = the paper's task counts).
DEFAULT_SCALE = 0.05


def bench_scale() -> float:
    """The scale benchmarks run at (REPRO_SCALE env, default 0.05)."""
    return float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))


@dataclass
class Table2Row:
    """One example's with/without-reconfiguration comparison."""

    example: str
    tasks: int
    without: CoSynthesisResult
    with_reconfig: CoSynthesisResult

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


def run_table2_row(
    example: str,
    scale: Optional[float] = None,
    library: Optional[ResourceLibrary] = None,
    config: Optional[CrusadeConfig] = None,
    spec: Optional[SystemSpec] = None,
) -> Table2Row:
    """Synthesize one example with and without reconfiguration.

    The baseline runs under the caller's ``config`` with only
    ``reconfiguration`` turned off, as the merge stage's own baseline
    does.
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
    without = crusade(spec, library=library, config=baseline_config)
    with_reconfig = crusade(spec, library=library, config=config, baseline=without)
    return Table2Row(
        example=example,
        tasks=spec.total_tasks,
        without=without,
        with_reconfig=with_reconfig,
    )


def run_table2(
    examples: Optional[Iterable[str]] = None, scale: Optional[float] = None
) -> List[Table2Row]:
    """Run every (or the given) example row."""
    if examples is None:
        examples = EXAMPLE_NAMES
    return [run_table2_row(name, scale=scale) for name in examples]


def render_table2(rows: Iterable[Table2Row]) -> str:
    """The paper's Table 2 layout."""
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
        "Table 2: Efficacy of CRUSADE "
        "(left: without dynamic reconfiguration, right: with)",
        headers,
        [row.cells() for row in rows],
    )
