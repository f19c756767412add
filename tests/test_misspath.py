"""The miss-path replay kernel against the method-call simulator it replaced.

The oracle replays below are copies of the per-event loops that drove
:class:`~repro.cache.l2.SetAssociativeCache` before the kernel existed:
the L2 replay of ``simulate_hierarchy`` (LFSR and LRU) and the dirty
bookkeeping of ``count_write_traffic``; plus the victim buffer's own
fully-associative LRU loop from ``simulate_victim_cache``.  Every count
must be equal.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_trace
from repro.cache.directmap import NO_VICTIM
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import Policy, l1_miss_stream
from repro.cache.l2 import SetAssociativeCache
from repro.cache.misspath import lfsr_ways, replay_l2, replay_lines
from repro.cache.replacement import LfsrReplacement, LruReplacement
from repro.errors import ConfigurationError
from repro.ext.victim import simulate_victim_cache
from repro.lfsr import Lfsr16

LINE_SIZE = 16


def shape(geometry):
    return geometry.n_sets, geometry.associativity


def oracle_cache(geometry, replacement):
    if replacement == "lru":
        policy = LruReplacement(geometry.associativity, geometry.n_sets)
    else:
        policy = LfsrReplacement(geometry.associativity)
    return SetAssociativeCache(geometry, policy)


def oracle_l2(lines, victims, counted, cache, exclusive):
    """The pre-kernel ``_simulate_l2`` loops; returns (hits, misses, fetched)."""
    hits = 0
    fetched = []
    for line, victim, count_it in zip(lines, victims, counted):
        if cache.lookup(line):
            hits += count_it
            if exclusive:
                cache.invalidate(line)
        else:
            fetched.append(line)
            if not exclusive:
                cache.fill(line)
        if exclusive and victim != NO_VICTIM:
            cache.fill(victim)
    return hits, sum(counted) - hits, fetched


def oracle_writes(lines, victims, counted, dirty_flags, geometry, exclusive):
    """The pre-kernel ``count_write_traffic`` loops (LFSR replacement)."""
    cache = SetAssociativeCache(geometry)
    l2_dirty, carried_dirty = set(), set()
    dirty_victims = offchip = evictions = 0

    def evict_to_offchip(evicted, count_it):
        nonlocal evictions
        if evicted is not None and evicted in l2_dirty:
            l2_dirty.discard(evicted)
            evictions += count_it

    for line, victim, count_it, dirty in zip(lines, victims, counted, dirty_flags):
        if not exclusive:
            if not cache.lookup(line):
                evict_to_offchip(cache.fill(line), count_it)
            if victim != NO_VICTIM and dirty:
                dirty_victims += count_it
                if cache.contains(victim):
                    l2_dirty.add(victim)
                else:
                    offchip += count_it
            continue
        if cache.lookup(line):
            cache.invalidate(line)
            if line in l2_dirty:
                l2_dirty.discard(line)
                carried_dirty.add(line)
        if victim != NO_VICTIM:
            victim_dirty = dirty or victim in carried_dirty
            carried_dirty.discard(victim)
            if victim_dirty:
                dirty_victims += count_it
            evict_to_offchip(cache.fill(victim), count_it)
            if victim_dirty:
                l2_dirty.add(victim)
            else:
                l2_dirty.discard(victim)
    return dirty_victims, offchip, evictions


class OracleFullyAssociativeLru:
    """The pre-kernel victim buffer."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._lines = OrderedDict()

    def probe_and_remove(self, line):
        if line in self._lines:
            del self._lines[line]
            return True
        return False

    def insert(self, line):
        if line in self._lines:
            self._lines.move_to_end(line)
            return
        if len(self._lines) >= self.capacity:
            self._lines.popitem(last=False)
        self._lines[line] = None


def oracle_victim(stream, warmup_time, victim_lines):
    """The pre-kernel ``simulate_victim_cache`` loop; returns its counts."""
    buffer = OracleFullyAssociativeLru(victim_lines)
    victim_hits = 0
    misses_below = 0
    counted_misses = 0
    for line, victim, time in zip(
        stream.lines.tolist(), stream.victims.tolist(), stream.times.tolist()
    ):
        counted = time >= warmup_time
        counted_misses += counted
        if buffer.probe_and_remove(line):
            victim_hits += counted
        else:
            misses_below += counted
        if victim != NO_VICTIM:
            buffer.insert(victim)
    return counted_misses, victim_hits, misses_below


def assert_kernel_matches(lines, victims, dirty, counted_from, geometry, exclusive):
    counted = [i >= counted_from for i in range(len(lines))]
    for replacement in ("lfsr", "lru"):
        replay = replay_lines(lines, victims, counted_from, *shape(geometry), exclusive, replacement)
        cache = oracle_cache(geometry, replacement)
        expected = oracle_l2(lines, victims, counted, cache, exclusive)
        assert (replay.hits, replay.misses, replay.fetched) == expected, replacement
    writes = replay_lines(lines, victims, counted_from, *shape(geometry), exclusive, dirty=dirty)
    expected = oracle_l2(lines, victims, counted, oracle_cache(geometry, "lfsr"), exclusive)
    assert (writes.hits, writes.misses, writes.fetched) == expected
    assert (
        writes.l1_dirty_victims,
        writes.l1_writebacks_offchip,
        writes.l2_dirty_evictions,
    ) == oracle_writes(lines, victims, counted, dirty, geometry, exclusive)


GEOMETRIES = [
    CacheGeometry(size, line_size=LINE_SIZE, associativity=assoc)
    for size, assoc in ((64, 1), (64, 2), (128, 4), (128, 8), (256, 2), (512, 4))
]

# Few distinct lines, so sets conflict and victims recur while resident.
events = st.lists(
    st.tuples(
        st.integers(0, 24),
        st.one_of(st.just(NO_VICTIM), st.integers(0, 24)),
        st.booleans(),
    ),
    max_size=300,
)


@settings(max_examples=150, deadline=None)
@given(
    data=events,
    warm=st.floats(0.0, 1.0),
    geometry=st.sampled_from(GEOMETRIES),
    exclusive=st.booleans(),
)
def test_kernel_equals_oracle_on_arbitrary_events(data, warm, geometry, exclusive):
    lines = [line for line, _, _ in data]
    victims = [victim for _, victim, _ in data]
    dirty = [flag for _, _, flag in data]
    counted_from = int(len(data) * warm)
    assert_kernel_matches(lines, victims, dirty, counted_from, geometry, exclusive)


def test_clean_victim_clears_the_dirty_bit_of_its_l2_copy():
    """Exclusive: line 1 enters the L2 dirty, returns clean, then is
    evicted; the eviction is clean."""
    geometry = CacheGeometry(64, line_size=LINE_SIZE, associativity=1)
    lines, victims = [2, 3, 6, 1], [1, 1, 5, NO_VICTIM]
    dirty = [True, False, False, False]
    assert_kernel_matches(lines, victims, dirty, 0, geometry, exclusive=True)
    replay = replay_lines(lines, victims, 0, *shape(geometry), True, dirty=dirty)
    assert (replay.l1_dirty_victims, replay.l2_dirty_evictions) == (1, 0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    l1_bytes=st.sampled_from([64, 256]),
    geometry=st.sampled_from(GEOMETRIES),
    policy=st.sampled_from(list(Policy)),
)
def test_replay_l2_equals_oracle_on_miss_streams(seed, l1_bytes, geometry, policy):
    from repro.ext.writes import _l1_dirty_flags

    trace = make_random_trace(seed, n_instructions=600, n_lines=96, store_ratio=0.3)
    stream = l1_miss_stream(trace, l1_bytes, LINE_SIZE)
    dirty = _l1_dirty_flags(trace, l1_bytes, LINE_SIZE)
    warmup_time = trace.n_instructions // 4
    counted = (stream.times >= warmup_time).tolist()
    lines, victims = stream.lines.tolist(), stream.victims.tolist()
    exclusive = policy is Policy.EXCLUSIVE
    for replacement in ("lfsr", "lru"):
        replay = replay_l2(stream, geometry, policy, warmup_time, replacement)
        cache = oracle_cache(geometry, replacement)
        assert (replay.hits, replay.misses, replay.fetched) == oracle_l2(
            lines, victims, counted, cache, exclusive
        )
    writes = replay_l2(stream, geometry, policy, warmup_time, dirty=dirty)
    assert (
        writes.l1_dirty_victims,
        writes.l1_writebacks_offchip,
        writes.l2_dirty_evictions,
    ) == oracle_writes(lines, victims, counted, dirty.tolist(), geometry, exclusive)


@pytest.mark.parametrize("associativity", [1, 2, 3, 4, 8])
def test_way_table_is_the_lfsr_draw_sequence(associativity):
    table = lfsr_ways(associativity)
    assert len(table) == Lfsr16.period()
    policy = LfsrReplacement(associativity)
    draws = [policy.victim_way(0) for _ in range(Lfsr16.period() + 1000)]
    # One period, then the register repeats: the table read cyclically.
    assert tuple(draws[: len(table)]) == table
    assert draws[len(table):] == list(table[:1000])
    assert lfsr_ways(associativity) is table


@pytest.mark.parametrize("exclusive", [False, True])
def test_more_replacements_than_one_lfsr_period(exclusive):
    """Conflict-heavy stream: the way table wraps and stays exact."""
    rng = np.random.default_rng(7)
    geometry = CacheGeometry(128, line_size=LINE_SIZE, associativity=2)
    lines = rng.integers(0, 64, size=160_000).tolist()
    victims = rng.integers(0, 64, size=160_000).tolist()
    cache_policy = LfsrReplacement(2)
    draws = 0
    victim_way = cache_policy.victim_way

    def counting_victim_way(set_index):
        nonlocal draws
        draws += 1
        return victim_way(set_index)

    cache_policy.victim_way = counting_victim_way
    cache = SetAssociativeCache(geometry, cache_policy)
    expected = oracle_l2(lines, victims, [True] * len(lines), cache, exclusive)
    assert draws > Lfsr16.period()
    replay = replay_lines(lines, victims, 0, *shape(geometry), exclusive)
    assert (replay.hits, replay.misses, replay.fetched) == expected


def test_back_to_back_replays_share_no_state():
    trace = make_random_trace(3, n_instructions=3000, n_lines=96)
    stream = l1_miss_stream(trace, 128, LINE_SIZE)
    geometry = CacheGeometry(256, line_size=LINE_SIZE, associativity=4)
    for policy in Policy:
        first = replay_l2(stream, geometry, policy, 500)
        second = replay_l2(stream, geometry, policy, 500)
        assert first == second


def test_unknown_replacement_and_lru_write_backs_rejected():
    geometry = CacheGeometry(128, line_size=LINE_SIZE, associativity=2)
    with pytest.raises(ConfigurationError, match="unknown replacement"):
        replay_lines([1, 2], None, 0, *shape(geometry), False, "fifo")
    with pytest.raises(ConfigurationError, match="LFSR"):
        replay_lines([1, 2], [NO_VICTIM] * 2, 0, *shape(geometry), False, "lru", [False] * 2)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    l1_bytes=st.sampled_from([64, 128, 256]),
    victim_lines=st.integers(1, 16),
    warm=st.sampled_from([0.0, 0.25, 0.5]),
)
def test_victim_buffer_equals_oracle_on_miss_streams(seed, l1_bytes, victim_lines, warm):
    """Any buffer size, not only the powers of two a CacheGeometry allows."""
    trace = make_random_trace(seed, n_instructions=600, n_lines=48)
    stats = simulate_victim_cache(
        trace, l1_bytes, victim_lines, line_size=LINE_SIZE, warmup_fraction=warm
    )
    stream = l1_miss_stream(trace, l1_bytes, LINE_SIZE)
    warmup_time = int(trace.n_instructions * warm)
    assert (stats.l1_misses, stats.victim_hits, stats.misses_below) == oracle_victim(
        stream, warmup_time, victim_lines
    )
