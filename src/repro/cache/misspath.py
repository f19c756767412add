"""One miss-path replay kernel: the L1 miss stream through one cache level.

Plain lists, one per set, and no method call per event; several times
faster than driving :class:`~repro.cache.l2.SetAssociativeCache`, which
stays the oracle.

* **LFSR** — list position is the way, ``-1`` an empty way.  A fill takes
  the first empty way, else the way of the next LFSR draw.
  :class:`~repro.cache.replacement.LfsrReplacement` samples its register
  only to choose a victim, never on a hit or touch, so the k-th
  replacement takes the k-th draw whatever the addresses: the draws come
  from a table (:func:`lfsr_ways`), read from the start by each replay as
  each cache starts a fresh register.
* **LRU** — the list holds the resident lines oldest first; a hit moves a
  line to the end, a fill into a full set drops the front.  Only recency
  picks an LRU victim, so way positions need no modelling.

Warmup events update the state uncounted: the warm slice runs first, then
the counted slice, on the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, islice, repeat
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..lfsr import Lfsr16
from .geometry import CacheGeometry
from .replacement import LfsrReplacement

__all__ = ["L2Replay", "lfsr_ways", "replay_l2", "replay_lines"]

# Lines are non-negative: -1 is the empty way and the stream's NO_VICTIM.
_EMPTY = -1


@dataclass(frozen=True)
class L2Replay:
    """Counted (post-warmup) outcome of one replay.

    ``fetched`` lists the missing lines in order, the fetches the level
    passes down; the last ``misses`` of them are counted.  The write-back
    counts are 0 unless dirty flags were given.
    """

    hits: int
    misses: int
    fetched: List[int]
    l1_dirty_victims: int = 0
    l1_writebacks_offchip: int = 0
    l2_dirty_evictions: int = 0


# About 0.5 MB per entry, built on first use; a valid geometry's
# associativity divides a power of two, so there are few distinct keys.
@lru_cache(maxsize=None)
def lfsr_ways(associativity: int) -> Tuple[int, ...]:
    """Way taken by the k-th replacement, over one LFSR period."""
    policy = LfsrReplacement(associativity)
    return tuple(policy.victim_way(0) for _ in range(Lfsr16.period()))


def _lfsr(rows, n_sets, draw, fetch, exclusive, lines, victims):
    hits = 0
    for line, victim in zip(lines, victims):
        row = rows[line % n_sets]
        if line in row:
            hits += 1
            if not exclusive:
                continue
            row[row.index(line)] = _EMPTY
        else:
            fetch(line)
        if exclusive:
            # The L1 victim, not the missing line, is what the L2 takes.
            if victim == _EMPTY:
                continue
            line, row = victim, rows[victim % n_sets]
            if line in row:
                continue
        row[row.index(_EMPTY) if _EMPTY in row else draw()] = line
    return hits, 0, 0, 0


def _lru(rows, n_sets, assoc, fetch, exclusive, lines, victims):
    hits = 0
    for line, victim in zip(lines, victims):
        row = rows[line % n_sets]
        if line in row:
            hits += 1
            row.remove(line)
        else:
            fetch(line)
        if exclusive:
            if victim == _EMPTY:
                continue
            line, row = victim, rows[victim % n_sets]
        # ``line`` becomes the most recent: touched if resident, else filled.
        if line in row:
            row.remove(line)
        elif len(row) == assoc:
            del row[0]
        row.append(line)
    return hits, 0, 0, 0


def _lfsr_dirty(
    rows, n_sets, draw, fetch, exclusive, lines, victims, dirty, l2_dirty, carried
):
    # ``l2_dirty``: dirty L2 lines; ``carried``: lines an exclusive hit
    # promoted dirty into the L1 (they return dirty without new stores).
    hits = dirty_victims = offchip = evictions = 0
    for line, victim, victim_dirty in zip(lines, victims, dirty):
        row = rows[line % n_sets]
        fill = _EMPTY
        if line in row:
            hits += 1
            if exclusive:
                row[row.index(line)] = _EMPTY
                if line in l2_dirty:
                    l2_dirty.discard(line)
                    carried.add(line)
        else:
            fetch(line)
            if not exclusive:
                fill = line
        if exclusive and victim != _EMPTY:
            if victim in carried:
                carried.discard(victim)
                victim_dirty = True
            row = rows[victim % n_sets]
            if victim not in row:
                fill = victim
        if fill != _EMPTY:
            if _EMPTY in row:
                row[row.index(_EMPTY)] = fill
            else:
                way = draw()
                if row[way] in l2_dirty:
                    l2_dirty.discard(row[way])
                    evictions += 1
                row[way] = fill
        if victim == _EMPTY:
            continue
        if victim_dirty:
            # The L2 copy takes the data, or else it goes off-chip.
            dirty_victims += 1
            if victim in rows[victim % n_sets]:
                l2_dirty.add(victim)
            else:
                offchip += 1
        elif exclusive:
            l2_dirty.discard(victim)
    return hits, dirty_victims, offchip, evictions


def replay_lines(
    lines: List[int],
    victims: Optional[List[int]],
    counted_from: int,
    geometry: CacheGeometry,
    exclusive: bool,
    replacement: str = "lfsr",
    dirty: Optional[List[bool]] = None,
) -> L2Replay:
    """Replay miss events given as lists; events from ``counted_from`` on count.

    ``victims`` holds the L1 victim per event (``-1`` for none; only the
    exclusive policy and the write-back count read it); ``dirty`` flags a
    dirty victim per event and adds the write-back counts (LFSR only).
    """
    if replacement not in ("lfsr", "lru"):
        raise ConfigurationError(f"unknown replacement policy {replacement!r}")
    if replacement == "lru" and dirty is not None:
        raise ConfigurationError("write-back counting needs LFSR replacement")
    n_sets, assoc = geometry.n_sets, geometry.associativity
    if victims is None:
        victims = [_EMPTY] * len(lines)
    fetched: List[int] = []
    if replacement == "lru":
        loop, empty_set, choose = _lru, [], assoc
    else:
        loop = _lfsr if dirty is None else _lfsr_dirty
        empty_set, choose = [_EMPTY] * assoc, cycle(lfsr_ways(assoc)).__next__
    rows = list(map(list.copy, repeat(empty_set, n_sets)))
    events = (lines, victims) if dirty is None else (lines, victims, dirty)
    state = () if dirty is None else (set(), set())
    for lo, hi in ((0, counted_from), (counted_from, len(lines))):
        slices = (islice(seq, lo, hi) for seq in events)
        counts = loop(rows, n_sets, choose, fetched.append, exclusive, *slices, *state)
    hits = counts[0]
    return L2Replay(hits, len(lines) - counted_from - hits, fetched, *counts[1:])


def replay_l2(
    stream, geometry: CacheGeometry, policy, warmup_time: int,
    replacement: str = "lfsr", dirty: Optional[np.ndarray] = None,
) -> L2Replay:
    """Replay a :class:`~repro.cache.hierarchy.MissStream` through one level.

    Events issued at or after ``warmup_time`` count; the stream is in
    program order, so they are a suffix.
    """
    return replay_lines(
        stream.lines.tolist(),
        stream.victims.tolist(),
        int(np.searchsorted(stream.times, warmup_time)),
        geometry,
        policy.value == "exclusive",
        replacement,
        None if dirty is None else dirty.tolist(),
    )
