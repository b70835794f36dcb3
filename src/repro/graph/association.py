"""Association array: copy bookkeeping without full replication.

In traditional real-time computing every task graph is replicated
``hyperperiod / period`` times and each copy scheduled independently,
which the paper notes is impractical for multi-rate systems where the
ratio is large (Section 5).  COSYN's *association array* instead keeps
one entry per copy recording only its phase offset; the schedule of a
representative copy is reused for the others, with deadline checks
performed per copy by shifting start/finish times.

Our implementation follows that spirit: an :class:`AssociationArray`
enumerates :class:`CopyInstance` records (graph, copy index, arrival
offset, absolute deadline).  The scheduler materializes at most
``max_explicit_copies`` copies per graph; the remaining copies are
*associated* with the scheduled ones -- their timing is the scheduled
copy's shifted by a whole number of periods, which is exact whenever
the resources serving the graph are not shared across copies and is
the standard COSYN approximation otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import SpecificationError
from repro.graph.hyperperiod import copies_in_hyperperiod, hyperperiod_of
from repro.graph.spec import SystemSpec


@dataclass(frozen=True)
class CopyInstance:
    """One copy of a task graph inside the hyperperiod.

    Attributes
    ----------
    graph:
        Task-graph name.
    copy:
        Copy index, 0-based, within the hyperperiod.
    arrival:
        Absolute arrival time of this copy in seconds (graph EST plus
        ``copy`` periods).
    deadline:
        Absolute deadline of this copy in seconds.
    explicit:
        True when this copy is materialized for the scheduler; False
        when it is associated with copy ``copy %% n_explicit`` and its
        timing derived by period shifting.
    """

    graph: str
    copy: int
    arrival: float
    deadline: float
    explicit: bool

    @property
    def key(self) -> tuple:
        """``(graph name, copy index)``: the copy's identity."""
        return (self.graph, self.copy)


class AssociationArray:
    """Per-graph copy enumeration over one hyperperiod.

    Parameters
    ----------
    spec:
        The system specification.
    max_explicit_copies:
        Cap on the number of copies per graph handed to the scheduler.
        ``None`` materializes every copy (exact, potentially slow).
    """

    def __init__(
        self, spec: SystemSpec, max_explicit_copies: Optional[int] = 4
    ) -> None:
        """Enumerate every graph's copies over the hyperperiod; a cap
        below 1 raises :class:`SpecificationError`."""
        if max_explicit_copies is not None and max_explicit_copies < 1:
            raise SpecificationError(
                "max_explicit_copies must be at least 1, got %r"
                % (max_explicit_copies,)
            )
        self.spec = spec
        self.hyperperiod = hyperperiod_of(spec)
        self.max_explicit_copies = max_explicit_copies
        self._copies: Dict[str, List[CopyInstance]] = {}
        for name in spec.graph_names():
            graph = spec.graph(name)
            total = copies_in_hyperperiod(graph.period, self.hyperperiod)
            explicit = total
            if max_explicit_copies is not None:
                explicit = min(total, max_explicit_copies)
            entries = []
            for k in range(total):
                arrival = graph.est + k * graph.period
                entries.append(
                    CopyInstance(
                        graph=name,
                        copy=k,
                        arrival=arrival,
                        deadline=arrival + graph.deadline,
                        explicit=k < explicit,
                    )
                )
            self._copies[name] = entries

    # ------------------------------------------------------------------
    def copies(self, graph_name: str) -> List[CopyInstance]:
        """All copies of ``graph_name`` inside the hyperperiod."""
        try:
            return list(self._copies[graph_name])
        except KeyError:
            raise SpecificationError(
                "no task graph %r in association array" % (graph_name,)
            ) from None

    def explicit_copies(self, graph_name: str) -> List[CopyInstance]:
        """Copies materialized for the scheduler."""
        return [c for c in self.copies(graph_name) if c.explicit]

    def associated_copies(self, graph_name: str) -> List[CopyInstance]:
        """Copies whose timing is derived by period shifting."""
        return [c for c in self.copies(graph_name) if not c.explicit]

    def n_copies(self, graph_name: str) -> int:
        """Total copies of a graph in the hyperperiod."""
        return len(self.copies(graph_name))

    def n_explicit(self, graph_name: str) -> int:
        """Materialized copies of a graph."""
        return len(self.explicit_copies(graph_name))

    def representative_of(self, instance: CopyInstance) -> CopyInstance:
        """The explicit copy an associated copy derives its schedule
        from (itself, when already explicit)."""
        if instance.explicit:
            return instance
        n_explicit = self.n_explicit(instance.graph)
        rep_index = instance.copy % n_explicit
        return self._copies[instance.graph][rep_index]

    def shift_of(self, instance: CopyInstance) -> float:
        """Time shift applied to the representative copy's schedule to
        obtain this copy's timing (zero for explicit copies)."""
        rep = self.representative_of(instance)
        return instance.arrival - rep.arrival

    def iter_all(self) -> Iterator[CopyInstance]:
        """Iterate every copy of every graph, deterministic order."""
        for name in self.spec.graph_names():
            for instance in self._copies[name]:
                yield instance

    def iter_explicit(self) -> Iterator[CopyInstance]:
        """Iterate only the materialized copies."""
        for instance in self.iter_all():
            if instance.explicit:
                yield instance

    def total_explicit(self) -> int:
        """Total number of materialized copies across all graphs."""
        return sum(self.n_explicit(n) for n in self.spec.graph_names())

    def total_copies(self) -> int:
        """Total copies (explicit + associated) across all graphs."""
        return sum(self.n_copies(n) for n in self.spec.graph_names())

    def compression_ratio(self) -> float:
        """Copies avoided by association: total / explicit.

        A ratio of 1.0 means no compression (every copy materialized);
        larger values quantify the association array's saving.
        """
        explicit = self.total_explicit()
        if explicit == 0:
            return 1.0
        return self.total_copies() / explicit

    def __repr__(self) -> str:
        return "AssociationArray(hyperperiod=%g, %d/%d copies explicit)" % (
            self.hyperperiod,
            self.total_explicit(),
            self.total_copies(),
        )
