"""Output checks: exact simulated counts, their digests and invariants.

A record holds the exact integers a run simulates (L1/L2 hits and
misses, victim-cache, stream-buffer and write-back counts) and, for
sweep points, the TPI and area floats as ``repr`` strings, so a digest
over the records changes if any result changes at all.  Digests for the
default seed and one held-out seed are committed in ``expected.json``;
every seed is also checked against invariants that hold for any input
(and that the program's own result types do not already enforce),
and every pass of one run must reproduce the same digest.
"""

import hashlib
import json
from pathlib import Path

__all__ = [
    "sweep_record",
    "replay_record",
    "digest",
    "invariant_mismatches",
    "expected_digest",
]

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def sweep_record(perf):
    stats = perf.stats
    return [
        perf.label,
        stats.l1i_misses,
        stats.l1d_misses,
        stats.l2_hits,
        stats.l2_misses,
        repr(perf.tpi_ns),
        repr(perf.area_rbe),
    ]


def replay_record(trace_name, l1_kb, study, result):
    if study.startswith("l2_"):
        counts = [result.l1i_misses, result.l1d_misses, result.l2_hits, result.l2_misses]
    elif study == "victim_cache":
        counts = [result.l1_misses, result.victim_hits, result.misses_below]
    elif study == "stream_buffer":
        counts = [result.l1i_misses, result.l1d_misses, result.buffer_hits,
                  result.misses_below]
    else:
        counts = [result.l1_dirty_victims, result.l1_writebacks_offchip,
                  result.l2_dirty_evictions, result.n_stores]
    return [trace_name, l1_kb, study] + counts


def digest(records):
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep_mismatches(records):
    """L1 misses depend only on the L1 size: every point with it agrees.

    L2 hits + misses = L1 misses is not checked here: ``HierarchyStats``
    already refuses counts that break it.
    """
    bad = 0
    l1_counts = {}
    for label, l1i, l1d, *_ in records:
        l1_size = label.split(":")[0]
        bad += l1_counts.setdefault(l1_size, (l1i, l1d)) != (l1i, l1d)
    return int(bad)


def _replay_mismatches(records):
    """The L1 stream is shared: every study of one (trace, L1) sees it whole."""
    bad = 0
    groups = {}
    for record in records:
        groups.setdefault((record[0], record[1]), {})[record[2]] = record[3:]
    for studies in groups.values():
        l1i, l1d = studies["l2_4way_conventional"][:2]
        l1_misses = l1i + l1d
        for study in ("l2_4way_exclusive", "l2_dm_conventional"):
            bad += tuple(studies[study][:2]) != (l1i, l1d)
        v_misses, v_hits, v_below = studies["victim_cache"]
        bad += v_misses != l1_misses or v_hits + v_below != l1_misses
        b_l1i, b_l1d, b_hits, b_below = studies["stream_buffer"]
        bad += (b_l1i, b_l1d) != (l1i, l1d) or b_hits + b_below != l1_misses
        dirty, offchip, _, _ = studies["writes_exclusive"]
        # Exclusive: every dirty L1 victim goes to the L2, never off-chip,
        # and each L1 miss evicts at most one victim.
        bad += offchip != 0 or dirty > l1_misses
    return int(bad)


def invariant_mismatches(workload, records):
    if workload == "sweep":
        return _sweep_mismatches(records)
    return _replay_mismatches(records)


def expected_digest(workload, seed, scale):
    """The committed digest for this input, or None if none is committed."""
    expected = json.loads(EXPECTED_PATH.read_text())
    entry = expected.get(workload, {})
    if entry.get("scale") != scale:
        return None
    return entry.get("seeds", {}).get(str(seed))
