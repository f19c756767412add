"""Fully-associative victim cache (Jouppi 1990, the paper's ref [4]).

A victim cache is a small fully-associative buffer beside a
direct-mapped L1 that catches its evictions; a miss that hits in the
victim cache swaps the two lines instead of going below.  The paper
notes (§8) that exclusive caching with ``y < x`` degenerates into "a
shared direct-mapped victim cache" — this module provides the genuine
fully-associative article for comparison.

The L1's contents are unaffected by the victim buffer (it always fills
on miss), so the simulation replays the memoised L1 miss stream, just
like the L2 simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..cache.geometry import DEFAULT_LINE_SIZE
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, l1_miss_stream, warmup_window
from ..cache.misspath import replay_lines
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["VictimCacheStats", "simulate_victim_cache"]


@dataclass(frozen=True)
class VictimCacheStats:
    """Counts for split DM L1s plus one shared victim buffer."""

    n_instructions: int
    n_data_refs: int
    l1_misses: int
    victim_hits: int
    misses_below: int
    victim_lines: int

    @property
    def n_refs(self) -> int:
        return self.n_instructions + self.n_data_refs

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.n_refs

    @property
    def victim_hit_rate(self) -> float:
        """Fraction of L1 misses absorbed by the victim buffer."""
        if self.l1_misses == 0:
            return 0.0
        return self.victim_hits / self.l1_misses

    @property
    def miss_rate_below(self) -> float:
        """Misses per reference that continue past the victim buffer."""
        return self.misses_below / self.n_refs


def simulate_victim_cache(
    workload: Union[str, Trace],
    l1_bytes: int,
    victim_lines: int = 4,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: "float | None" = None,
) -> VictimCacheStats:
    """Split DM L1s with a shared ``victim_lines``-entry victim buffer.

    On an L1 miss the buffer is probed: a hit swaps (the requested line
    returns to the L1, its victim enters the buffer, and the request
    never leaves the chip-level pair); a miss inserts the L1 victim and
    the request continues below (counted in ``misses_below``).
    """
    if victim_lines < 1:
        raise ConfigurationError("victim_lines must be >= 1")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    warmup_time, n_data = warmup_window(trace, warmup_fraction)
    stream = l1_miss_stream(trace, l1_bytes, line_size)
    # The buffer is an exclusive one-set LRU level: a hit moves the line
    # back to the L1, and each L1 victim enters as the most recent line.
    counted_from = int(np.searchsorted(stream.times, warmup_time))
    buffer = replay_lines(
        stream.lines.tolist(), stream.victims.tolist(), counted_from,
        1, victim_lines, exclusive=True, replacement="lru",
    )
    return VictimCacheStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=n_data,
        l1_misses=buffer.hits + buffer.misses,
        victim_hits=buffer.hits,
        misses_below=buffer.misses,
        victim_lines=victim_lines,
    )
