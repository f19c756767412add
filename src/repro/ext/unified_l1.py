"""Unified (mixed) vs split first-level caches — intro advantage #1.

The paper's first argument for a two-level hierarchy: split L1s impose
a *static* partition between instructions and data, while a mixed cache
allocates lines "depending on the program's requirements".  The L1s
must still be split for bandwidth, so the mixed L2 is where the dynamic
allocation happens — but the underlying claim is measurable at level
one: a unified cache of capacity 2N usually misses less than split
N + N caches (ignoring the bandwidth problem a unified L1 would have).

A unified direct-mapped cache over the merged (program-order) reference
stream is still replacement-free, so the vectorised filter applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..cache.directmap import direct_mapped_filter
from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, l1_miss_stream, warmup_window
from ..cache.misspath import replay_lines
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["SplitVsUnified", "compare_split_vs_unified"]


@dataclass(frozen=True)
class SplitVsUnified:
    """Miss comparison: split N+N DM caches vs one unified 2N DM cache."""

    workload: str
    per_cache_bytes: int
    n_refs: int
    split_misses: int
    unified_misses: int

    @property
    def split_miss_rate(self) -> float:
        return self.split_misses / self.n_refs

    @property
    def unified_miss_rate(self) -> float:
        return self.unified_misses / self.n_refs

    @property
    def unified_advantage(self) -> float:
        """Relative miss reduction of dynamic allocation (can be
        negative when I/D conflict in the shared array)."""
        if self.split_misses == 0:
            return 0.0
        return 1.0 - self.unified_misses / self.split_misses


def compare_split_vs_unified(
    workload: Union[str, Trace],
    per_cache_bytes: int,
    unified_associativity: int = 1,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> SplitVsUnified:
    """Compare split ``N+N`` DM L1s against one unified ``2N`` cache.

    Both organisations see the same program-order reference stream
    (instruction fetch before same-cycle data access); capacities are
    equal in total.  A direct-mapped unified cache often *loses* to the
    split pair (streaming data evicts code), which is half of the
    paper's design argument; with ``unified_associativity > 1`` (LRU,
    simulated stepwise) dynamic allocation pays off — the other half:
    put the mixed capacity in the set-associative L2.
    """
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    warmup_time, counted_data = warmup_window(trace, warmup_fraction)

    # Split: reuse the memoised per-cache streams.
    stream = l1_miss_stream(trace, per_cache_bytes, line_size)
    split_misses = int((stream.times >= warmup_time).sum())

    # Unified: one 2N cache over the merged program-order stream.
    unified = CacheGeometry(
        2 * per_cache_bytes, line_size=line_size, associativity=unified_associativity
    )
    i_lines = trace.i_lines(line_size)
    d_lines = trace.d_lines(line_size)
    times = np.concatenate([np.arange(trace.n_instructions), trace.d_times])
    kinds = np.concatenate(
        [np.zeros(trace.n_instructions, dtype=np.int8),
         np.ones(trace.n_data_refs, dtype=np.int8)]
    )
    order = np.lexsort((kinds, times))
    merged_lines = np.concatenate([i_lines, d_lines])[order]
    merged_times = times[order]
    if unified.is_direct_mapped:
        result = direct_mapped_filter(merged_lines, unified.n_sets)
        unified_misses = int(
            (result.miss_mask & (merged_times >= warmup_time)).sum()
        )
    else:
        counted_from = int(np.searchsorted(merged_times, warmup_time))
        unified_misses = replay_lines(
            merged_lines.tolist(), None, counted_from, unified, False, "lru"
        ).misses

    n_refs = (trace.n_instructions - warmup_time) + counted_data
    return SplitVsUnified(
        workload=trace.name,
        per_cache_bytes=per_cache_bytes,
        n_refs=n_refs,
        split_misses=split_misses,
        unified_misses=unified_misses,
    )
