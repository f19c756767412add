"""Strict multi-level inclusion with back-invalidation (Baer & Wang).

The paper's baseline two-level policy is *non-inclusive*: the L2 never
forces lines out of the L1s, so after an L2 eviction a line can live in
an L1 only.  Strict inclusion — every L1-resident line is also L2
resident, maintained by back-invalidating the L1s whenever the L2
evicts — simplifies multiprocessor snooping (the paper cites Baer &
Wang [1] and notes §8 that inclusion can still be kept against an
*off-chip* third level).

Strict inclusion breaks the decomposition the fast simulator relies on
(L2 evictions now change L1 contents), so this module carries its own
straightforward whole-trace simulator.  It is intentionally slow and
meant for ablation studies at modest trace scales.
"""

from __future__ import annotations

from typing import Union

from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, warmup_window
from ..cache.l2 import SetAssociativeCache
from ..cache.results import HierarchyStats
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["simulate_strict_inclusion"]


class _InclusiveL1:
    """Direct-mapped L1 supporting back-invalidation."""

    def __init__(self, n_sets: int) -> None:
        self.n_sets = n_sets
        self.contents: dict = {}

    def access(self, line: int) -> bool:
        """Reference ``line``; returns True on miss (and fills)."""
        set_index = line % self.n_sets
        if self.contents.get(set_index) == line:
            return False
        self.contents[set_index] = line
        return True

    def back_invalidate(self, line: int) -> None:
        set_index = line % self.n_sets
        if self.contents.get(set_index) == line:
            del self.contents[set_index]


def simulate_strict_inclusion(
    workload: Union[str, Trace],
    l1_bytes: int,
    l2_bytes: int,
    l2_associativity: int = 4,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: "float | None" = None,
) -> HierarchyStats:
    """Simulate strict inclusion: L2 evictions invalidate the L1s.

    Semantics: every fill into an L1 also fills the L2 (L2 hits refresh
    nothing — random replacement keeps no recency); when the L2 evicts
    a line, both L1s drop it, so the next reference re-misses — the
    inclusion overhead this ablation quantifies.
    """
    if not l2_bytes:
        raise ConfigurationError("strict inclusion requires a second level")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload

    l1_geometry = CacheGeometry(l1_bytes, line_size=line_size, associativity=1)
    icache = _InclusiveL1(l1_geometry.n_sets)
    dcache = _InclusiveL1(l1_geometry.n_sets)
    l2 = SetAssociativeCache(
        CacheGeometry(l2_bytes, line_size=line_size, associativity=l2_associativity)
    )

    warmup_time, counted_data = warmup_window(trace, warmup_fraction)
    l1i = l1d = l2_hits = l2_misses = 0

    i_lines = trace.i_lines(line_size).tolist()
    d_lines = trace.d_lines(line_size).tolist()
    d_times = trace.d_times.tolist()
    d_cursor = 0
    n_data = len(d_lines)

    def reference(line: int, is_instruction: bool, counted: bool) -> None:
        nonlocal l1i, l1d, l2_hits, l2_misses
        cache = icache if is_instruction else dcache
        if not cache.access(line):
            return
        if counted:
            if is_instruction:
                l1i += 1
            else:
                l1d += 1
        if l2.lookup(line):
            l2_hits += counted
        else:
            l2_misses += counted
            evicted = l2.fill(line)
            if evicted is not None:
                # Enforce inclusion: the line leaves the whole chip.
                icache.back_invalidate(evicted)
                dcache.back_invalidate(evicted)

    for cycle, i_line in enumerate(i_lines):
        counted = cycle >= warmup_time
        reference(i_line, True, counted)
        while d_cursor < n_data and d_times[d_cursor] == cycle:
            reference(d_lines[d_cursor], False, counted)
            d_cursor += 1

    return HierarchyStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=counted_data,
        l1i_misses=l1i,
        l1d_misses=l1d,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        has_l2=True,
    )
