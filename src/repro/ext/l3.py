"""An off-chip (board-level) third cache level behind the chip.

The paper collapses everything beyond the chip into a constant service
time: 50 ns "corresponding to systems with ... a board-level cache" and
200 ns without one.  Its §8 closes by noting that inclusion between the
on-chip levels' *sum* and an off-chip third level can still be
maintained.  This extension models that board cache explicitly: on-chip
misses probe a large off-chip SRAM and only its misses pay the DRAM
latency, replacing the constant with a workload-dependent mixture.

The L3 consumes the stream of off-chip fetches, which — for both
on-chip policies — is exactly the sequence of L2-missing lines in
program order, replayed here with the same replacement discipline as
the core simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..cache.geometry import CacheGeometry
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, l1_miss_stream, warmup_window
from ..cache.misspath import replay_l2, replay_lines
from ..core.config import SystemConfig
from ..core.tpi import system_timings
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace
from ..units import round_up_to_multiple

__all__ = ["BoardCacheResult", "evaluate_with_board_cache"]


@dataclass(frozen=True)
class BoardCacheResult:
    """TPI with an explicit board-level cache behind the chip."""

    config: SystemConfig
    workload: str
    l3_bytes: int
    l3_hits: int
    l3_misses: int
    board_hit_ns: float
    dram_ns: float
    tpi_ns: float
    constant_model_tpi_ns: float

    @property
    def l3_local_miss_rate(self) -> float:
        total = self.l3_hits + self.l3_misses
        return self.l3_misses / total if total else 0.0

    @property
    def effective_off_chip_ns(self) -> float:
        """Average off-chip service time the L3 mixture produces."""
        total = self.l3_hits + self.l3_misses
        if not total:
            return self.board_hit_ns
        return (
            self.l3_hits * self.board_hit_ns + self.l3_misses * self.dram_ns
        ) / total


def evaluate_with_board_cache(
    config: SystemConfig,
    workload: Union[str, Trace],
    l3_bytes: int = 1 << 20,
    l3_associativity: int = 1,
    board_hit_ns: float = 50.0,
    dram_ns: float = 200.0,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> BoardCacheResult:
    """TPI with per-fetch board-cache hit/miss latencies.

    ``config.off_chip_ns`` is ignored; every off-chip fetch pays
    ``board_hit_ns`` or ``dram_ns`` (both rounded up to L1 cycles)
    according to an explicit L3 simulation.  The constant-latency TPI
    at ``board_hit_ns`` is also reported for comparison — the paper's
    50 ns abstraction is exactly the limit of a never-missing L3.
    """
    if l3_bytes <= 0:
        raise ConfigurationError("the board cache needs a positive size")
    if dram_ns < board_hit_ns:
        raise ConfigurationError("DRAM cannot be faster than the board cache")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload

    warmup_time = warmup_window(trace, warmup_fraction)[0]
    stream = l1_miss_stream(trace, config.l1_bytes, config.line_size)
    # The L3 sees the off-chip fetches: every L1 miss, or the L2's misses
    # in order.  Either way the counted fetches are a suffix.
    fetched = stream.lines.tolist()
    counted_from = int(np.searchsorted(stream.times, warmup_time))
    l2_hits = 0
    if config.has_l2:
        l2_geometry = CacheGeometry(config.l2_bytes, config.line_size, config.l2_associativity)
        l2 = replay_l2(stream, l2_geometry, config.policy, warmup_time)
        fetched, counted_from, l2_hits = l2.fetched, len(l2.fetched) - l2.misses, l2.hits
    l3_geometry = CacheGeometry(l3_bytes, config.line_size, l3_associativity)
    l3 = replay_lines(
        fetched, None, counted_from, l3_geometry.n_sets, l3_associativity, exclusive=False
    )
    l3_hits, l3_misses = l3.hits, l3.misses

    timings = system_timings(config)
    hit_ns = round_up_to_multiple(board_hit_ns, timings.l1_cycle_ns)
    miss_ns = round_up_to_multiple(dram_ns, timings.l1_cycle_ns)
    n_instructions = trace.n_instructions - warmup_time

    base = n_instructions * timings.l1_cycle_ns / config.issue_width
    # Every fetch pays the board (or DRAM) on top of its on-chip probe.
    probe = timings.l1_cycle_ns
    if config.has_l2:
        transfers = timings.transfers_per_line
        hit_penalty = transfers * timings.l2_cycle_ns + timings.l1_cycle_ns
        probe = (transfers + 1) * timings.l2_cycle_ns + timings.l1_cycle_ns
        base = base + l2_hits * hit_penalty
    total = base + l3_hits * (hit_ns + probe) + l3_misses * (miss_ns + probe)
    constant = base + (l3_hits + l3_misses) * (hit_ns + probe)

    return BoardCacheResult(
        config=config,
        workload=trace.name,
        l3_bytes=l3_bytes,
        l3_hits=l3_hits,
        l3_misses=l3_misses,
        board_hit_ns=hit_ns,
        dram_ns=miss_ns,
        tpi_ns=total / n_instructions,
        constant_model_tpi_ns=constant / n_instructions,
    )
