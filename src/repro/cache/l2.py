"""Stateful set-associative cache: the oracle of the replay kernel.

The L2 studies replay the L1 miss stream with
:mod:`repro.cache.misspath`, which keeps plain lists per set and makes
no method call per event.  This method-call simulator (a numpy tag store
and a :class:`~repro.cache.replacement.ReplacementPolicy`) is what the
kernel is tested against, and it serves the whole-trace models that
cannot use a miss stream (strict inclusion, the reference hierarchy).

The tag store uses ``INVALID`` (-1) as the empty marker, which is safe
because line addresses are non-negative by construction
(:class:`repro.traces.address.Trace` validates this).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import CacheGeometry
from .replacement import LfsrReplacement, ReplacementPolicy

__all__ = ["SetAssociativeCache", "INVALID"]

#: Tag-store marker for an empty way.
INVALID = -1


class SetAssociativeCache:
    """A set-associative cache of line addresses.

    Parameters
    ----------
    geometry:
        Capacity / line size / associativity.
    replacement:
        Replacement policy; defaults to the paper's LFSR pseudo-random
        policy.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.geometry = geometry
        self._n_sets = geometry.n_sets
        self._assoc = geometry.associativity
        self._tags = np.full((self._n_sets, self._assoc), INVALID, dtype=np.int64)
        self.replacement: ReplacementPolicy = (
            replacement if replacement is not None else LfsrReplacement(self._assoc)
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def _find_way(self, set_index: int, line: int) -> int:
        row = self._tags[set_index]
        for way in range(self._assoc):
            if row[way] == line:
                return way
        return -1

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; returns True on hit (and records the touch)."""
        set_index = line % self._n_sets
        way = self._find_way(set_index, line)
        if way < 0:
            return False
        self.replacement.touch(set_index, way)
        return True

    def contains(self, line: int) -> bool:
        """Non-destructive presence check (does not update recency)."""
        return self._find_way(line % self._n_sets, line) >= 0

    # ------------------------------------------------------------------
    # state changes
    # ------------------------------------------------------------------

    def fill(self, line: int) -> Optional[int]:
        """Allocate ``line``, returning the evicted line (if any).

        Invalid ways are filled first; otherwise the replacement policy
        chooses the victim.  Filling a line that is already present is a
        no-op returning ``None`` (this occurs in exclusive hierarchies
        when the same line was victimised from both L1 caches).
        """
        set_index = line % self._n_sets
        row = self._tags[set_index]
        existing = self._find_way(set_index, line)
        if existing >= 0:
            self.replacement.touch(set_index, existing)
            return None
        for way in range(self._assoc):
            if row[way] == INVALID:
                row[way] = line
                self.replacement.touch(set_index, way)
                return None
        way = self.replacement.victim_way(set_index)
        evicted = int(row[way])
        row[way] = line
        self.replacement.touch(set_index, way)
        return evicted

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns True if it was removed."""
        set_index = line % self._n_sets
        way = self._find_way(set_index, line)
        if way < 0:
            return False
        self._tags[set_index, way] = INVALID
        return True

    # ------------------------------------------------------------------
    # introspection (tests, examples)
    # ------------------------------------------------------------------

    @property
    def n_valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        return int((self._tags != INVALID).sum())

    def resident_lines(self) -> np.ndarray:
        """Sorted array of all resident line addresses."""
        valid = self._tags[self._tags != INVALID]
        return np.sort(valid)

    def set_contents(self, set_index: int) -> np.ndarray:
        """Copy of one set's tag row (``INVALID`` marks empty ways)."""
        return self._tags[set_index].copy()
