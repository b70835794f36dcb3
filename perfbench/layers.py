"""Per-layer spans, recorded from outside the program.

The benchmark never edits ``src/``.  It wraps the public functions of
each layer at every name their callers resolve: ``from x import f``
binds a second name in the importing module, so a wrapper installed
only on ``x.f`` would miss those calls.  :meth:`Recorder.patch_function`
therefore replaces every binding of the original object in every
loaded ``repro`` module.

A span's *self time* is its duration minus the durations of the
wrapped calls made inside it.  Self times are disjoint, so their sum
never exceeds the wall time of the operations (``crusade()`` calls,
requests) that contain them; what is left is time inside an operation
but outside every wrapped layer.  A call
into the same layer directly inside a span of that layer (a digest
helper calling another digest helper, a timeline method calling its
base class) is folded into the outer span and not counted twice.

Spans are aggregated in memory per layer (calls, self seconds, aborted
calls, items returned) and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Dict, List

_clock = time.perf_counter

#: Functions wrapped for the synthesis layers: (module, name, layer).
SYNTHESIS_FUNCTIONS = (
    ("repro.alloc.array", "build_allocation_array", "alloc.array"),
    ("repro.alloc.evaluate", "evaluate_architecture", "alloc.evaluate"),
    ("repro.sched.scheduler", "build_schedule", "sched.build"),
    ("repro.reconfig.merge", "merge_reconfigurable_pes", "merge"),
    ("repro.perf.fingerprint", "component_fingerprint", "fingerprint"),
    ("repro.perf.fingerprint", "partition_components", "fingerprint"),
)

#: Content digests the store and the service address everything by.
DIGEST_FUNCTIONS = (
    "spec_digest",
    "graph_digest",
    "graph_digests",
    "catalog_digest",
    "config_digest",
    "fingerprint_digest",
    "fragment_validity_digest",
    "value_digest",
)

#: Store methods per direction; fragment reads get their own layer so
#: the share of disk probes that found a fragment can be computed.
STORE_METHODS = {
    "store.read": ("load_result", "load_index"),
    "store.read.fragment": ("load_fragment",),
    "store.write": ("save_result", "save_fragment", "save_index"),
}

#: Timeline operations the schedulers call.
TIMELINE_METHODS = ("earliest_fit", "occupy", "split_fit", "preempt_split",
                    "place")

#: Service-side functions: (module, name, layer).
SERVICE_FUNCTIONS = (
    ("repro.io.service_json", "validate_request", "service.admission"),
    ("repro.io.service_json", "done_response", "service.respond"),
    ("repro.io.result_json", "result_to_dict", "service.respond"),
    ("repro.service.http", "render_response", "service.respond"),
)


class Recorder:
    """Aggregated spans per layer for one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.aborts: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self._local = threading.local()
        self._leaf_depth: Dict[str, List[int]] = {}

    def _register(self, layer: str) -> None:
        for table in (self.calls, self.aborts, self.items):
            table.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list, frame: list, elapsed: float) -> None:
        stack.pop()
        layer = frame[0]
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed

    # -- spans ---------------------------------------------------------
    def span(self, layer: str, fn, abort_types=(), count_items=False):
        """``fn`` wrapped in a span of ``layer``."""
        self._register(layer)
        stack_of = self._stack
        close = self._close
        aborts = self.aborts
        items = self.items

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except abort_types:
                aborts[layer] += 1
                raise
            finally:
                close(stack, frame, _clock() - start)
            if count_items:
                items[layer] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, layer: str, fn):
        """A cheaper span for hot leaf calls (timeline operations).

        A leaf calls no other wrapped layer, so it pushes no frame; it
        only adds its duration to the enclosing span's child time.
        """
        self._register(layer)
        depth = self._leaf_depth.setdefault(layer, [0])
        stack_of = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                depth[0] = 0
                calls[layer] += 1
                self_s[layer] += elapsed
                stack = stack_of()
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def patch_function(self, module_name: str, attr: str, layer: str,
                       **options) -> None:
        """Wrap ``module_name.attr`` at every ``repro`` binding of it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.span(layer, original, **options)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def patch_method(self, cls, attr: str, layer: str,
                     leaf: bool = False) -> None:
        """Wrap the method ``cls.attr`` (``cls`` must define it)."""
        original = cls.__dict__[attr]
        wrap = self.leaf if leaf else self.span
        setattr(cls, attr, wrap(layer, original))

    def install_synthesis(self) -> None:
        """Wrap the synthesis layers, allocation down to timelines."""
        from repro.perf import fasttimeline, treetimeline
        from repro.perf.prune import CandidatePruner, RepairBound
        from repro.sched import timeline
        from repro.sched.scheduler import ScheduleAbort

        for module_name, attr, layer in SYNTHESIS_FUNCTIONS:
            options = {}
            if layer == "sched.build":
                options["abort_types"] = (ScheduleAbort,)
            if layer == "alloc.array":
                options["count_items"] = True
            self.patch_function(module_name, attr, layer, **options)
        self.patch_method(CandidatePruner, "bound", "prune.floor")
        self.patch_method(RepairBound, "badness_floor", "prune.floor")
        classes = (
            timeline.IntervalTimeline, timeline.PpeModeTimeline,
            fasttimeline.FastTimeline, fasttimeline.FastPpeModeTimeline,
            treetimeline.TreeTimeline, treetimeline._BlockedTimeline,
            treetimeline.TreePpeModeTimeline,
        )
        for cls in classes:
            for attr in TIMELINE_METHODS:
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, "timeline", leaf=True)

    def install_store(self) -> None:
        """Wrap the persistent store's reads and writes and the digests."""
        from repro.perf.store import SynthesisStore

        for attr in DIGEST_FUNCTIONS:
            self.patch_function("repro.perf.store.digests", attr, "digest")
        for layer, methods in STORE_METHODS.items():
            for attr in methods:
                self.patch_method(SynthesisStore, attr, layer)

    def install_service(self) -> None:
        """Wrap the service's admission and response functions."""
        for module_name, attr, layer in SERVICE_FUNCTIONS:
            self.patch_function(module_name, attr, layer)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates (JSON-ready)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "aborts": dict(self.aborts),
            "items": dict(self.items),
        }


def preload_modules() -> None:
    """Import every module whose bindings the wrappers must reach.

    A module imported after patching would bind the wrappers anyway;
    importing first keeps every binding visible to one scan.
    """
    for name in ("repro", "repro.perf.warmstart", "repro.service.server",
                 "repro.campaign.jobs", "repro.core.stages.pipeline"):
        importlib.import_module(name)
