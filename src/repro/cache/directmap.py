"""Vectorised direct-mapped cache filter.

A direct-mapped cache has no replacement choice: at any instant, each
set holds exactly the most recently referenced line that maps to it.
Consequently reference *i* misses **iff** the closest previous reference
mapping to the same set used a different line — a property of the
reference stream alone.  A stable sort by set index brings every set's
references together in program order, so one vectorised pass yields the
full miss mask *and* the victim line evicted by each miss.

This is what makes whole-design-space sweeps tractable in Python: the
L1 caches (always direct-mapped in the paper) are filtered at numpy
speed, and only their miss streams reach the slower stateful L2
simulator.  Equivalence with the straightforward simulator is proven by
property-based tests (see ``tests/test_directmap.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import GeometryError, TraceError

__all__ = ["DirectMappedFilter", "direct_mapped_filter", "dirty_victim_mask"]

#: Marker for "no victim" (cold fill into an empty set).
NO_VICTIM = -1


@dataclass(frozen=True)
class DirectMappedFilter:
    """Result of filtering a line-address stream through a DM cache.

    Attributes
    ----------
    miss_mask:
        Boolean per reference: True where the cache missed.
    victims:
        Per reference, the line address evicted by the fill (only
        meaningful where ``miss_mask`` is True); ``NO_VICTIM`` for hits
        and for cold fills into an empty set.
    dirty:
        With store flags given, per reference: True where the miss
        evicts a dirty line (else ``None``).
    """

    miss_mask: np.ndarray
    victims: np.ndarray
    dirty: Optional[np.ndarray] = None

    @property
    def n_refs(self) -> int:
        return len(self.miss_mask)

    @property
    def n_misses(self) -> int:
        return int(self.miss_mask.sum())

    @property
    def miss_rate(self) -> float:
        if self.n_refs == 0:
            return 0.0
        return self.n_misses / self.n_refs


def direct_mapped_filter(
    lines: np.ndarray, n_sets: int, is_store: Optional[np.ndarray] = None
) -> DirectMappedFilter:
    """Simulate a direct-mapped cache over a stream of line addresses.

    Parameters
    ----------
    lines:
        ``int64`` array of line addresses (byte address // line size),
        in program order.
    n_sets:
        Number of cache sets (= number of lines for a DM cache).
    is_store:
        Optional store flag per reference; when given, the result also
        flags the misses that evict a dirty line.

    Returns
    -------
    DirectMappedFilter
        Miss mask and victim lines (and dirty flags), aligned with ``lines``.
    """
    if n_sets < 1:
        raise GeometryError("n_sets must be >= 1")
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = len(lines)
    if is_store is not None:
        is_store = np.ascontiguousarray(is_store, dtype=bool)
        if len(is_store) != n:
            raise TraceError("lines and is_store must align")
    miss = np.empty(n, dtype=bool)
    victims = np.full(n, NO_VICTIM, dtype=np.int64)
    dirty = None if is_store is None else np.zeros(n, dtype=bool)
    if n == 0:
        return DirectMappedFilter(miss, victims, dirty)

    sets = lines % n_sets
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]

    miss_sorted = np.empty(n, dtype=bool)
    victims_sorted = np.full(n, NO_VICTIM, dtype=np.int64)
    miss_sorted[0] = True
    same_set = sorted_sets[1:] == sorted_sets[:-1]
    changed_line = sorted_lines[1:] != sorted_lines[:-1]
    # A reference misses if it starts a new set group (cold miss) or
    # the previous reference in its set used a different line.
    miss_sorted[1:] = ~same_set | changed_line
    # The victim is the previous line in the same set, when there is
    # one and it differs (i.e. a genuine replacement, not a cold fill).
    evicting = same_set & changed_line
    victims_sorted[1:][evicting] = sorted_lines[:-1][evicting]

    miss[order] = miss_sorted
    victims[order] = victims_sorted
    if dirty is not None:
        # Each residency is a maximal run of equal lines within a set,
        # delimited by the misses; the victim of an eviction is the run
        # before it, dirty iff any of its references stored.
        starts = np.nonzero(miss_sorted)[0]
        run_dirty = np.logical_or.reduceat(is_store[order], starts)
        dirty_sorted = np.zeros(n, dtype=bool)
        dirty_sorted[starts[1:]] = run_dirty[:-1] & evicting[starts[1:] - 1]
        dirty[order] = dirty_sorted
    return DirectMappedFilter(miss, victims, dirty)


def dirty_victim_mask(
    lines: np.ndarray, is_store: np.ndarray, n_sets: int
) -> np.ndarray:
    """Per-reference flag: does this miss evict a *dirty* victim?

    A direct-mapped victim is dirty iff the evicted line received at
    least one store during its residency (see :func:`direct_mapped_filter`).

    Returns a boolean array aligned with ``lines``; True only at
    positions that are misses evicting a dirty line.
    """
    return direct_mapped_filter(lines, n_sets, is_store).dirty
