"""Three empty timeline names, kept for the benchmark alone.

``perfbench/layers.py`` imports :class:`TreeTimeline`,
:class:`_BlockedTimeline` and :class:`TreePpeModeTimeline` by name.
The scheduler builds :class:`~repro.perf.fasttimeline.FastTimeline`
and :class:`~repro.perf.fasttimeline.FastPpeModeTimeline` directly,
and nothing in ``src/`` imports this module.  The names are empty
subclasses, not aliases: the benchmark wraps only the methods a class
defines itself, so each timeline op is still counted once.

Store entries written while these classes were the production pair
unpickle into them: a ``TreeTimeline`` that never passed its old
1024-interval switch holds ``FastTimeline``'s lists and works as one.
"""

from repro.perf.fasttimeline import FastPpeModeTimeline, FastTimeline


class TreeTimeline(FastTimeline):
    """An empty :class:`FastTimeline`."""


class _BlockedTimeline(TreeTimeline):
    """A timeline pickled in the deleted blocked-index layout."""

    def __setstate__(self, state):
        """Refuse: the store counts a ``TypeError`` as a corrupt entry,
        drops it and resynthesizes."""
        raise TypeError("the blocked timeline index no longer exists")


class TreePpeModeTimeline(FastPpeModeTimeline):
    """An empty :class:`FastPpeModeTimeline`."""
