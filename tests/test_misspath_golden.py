"""Committed golden output of the miss-path replay.

``tests/golden/misspath_counts.json`` holds exact integer counts for all
seven workload models at the tests' tiny scale:

* ``simulate_hierarchy`` under LFSR and LRU replacement and
  ``count_write_traffic`` for every L1 (1/4/32 KB) × L2 (8/64/256 KB) ×
  associativity (1/2/4/8) × policy, plus the single-level case per L1;
* ``evaluate_with_board_cache`` L3 hits and misses for a subset;
* the LRU L1 models (``evaluate_associative_l1``,
  ``compare_split_vs_unified``) for a subset.

Counts are integers from a deterministic simulation, so they are exact on
any platform and the test compares them with ``==``.

Regenerate (only when the simulated behaviour is meant to change)::

    PYTHONPATH=src python tests/test_misspath_golden.py
"""

import json
from dataclasses import asdict
from pathlib import Path

from conftest import TINY
from repro.cache.hierarchy import Policy, simulate_hierarchy
from repro.core.config import SystemConfig
from repro.ext.associative_l1 import evaluate_associative_l1
from repro.ext.l3 import evaluate_with_board_cache
from repro.ext.unified_l1 import compare_split_vs_unified
from repro.ext.writes import count_write_traffic
from repro.traces.store import get_trace
from repro.traces.workloads import workload_names
from repro.units import kb

GOLDEN = Path(__file__).parent / "golden" / "misspath_counts.json"

L1_KB = (1, 4, 32)
L2_KB = (8, 64, 256)
ASSOCIATIVITIES = (1, 2, 4, 8)
POLICIES = (Policy.CONVENTIONAL, Policy.EXCLUSIVE)

# (l1_kb, l2_kb, associativity, policy) on-chip shapes and (l3_kb,
# associativity) board caches small enough to miss at the tiny scale.
L3_CHIPS = (
    (1, 0, 4, Policy.CONVENTIONAL),
    (4, 0, 4, Policy.CONVENTIONAL),
    (1, 8, 1, Policy.CONVENTIONAL),
    (4, 64, 4, Policy.CONVENTIONAL),
    (1, 8, 2, Policy.EXCLUSIVE),
    (4, 64, 4, Policy.EXCLUSIVE),
)
L3_CACHES = ((64, 1), (128, 4))
# (l1_kb, associativity) of the set-associative LRU L1 models.
LRU_L1S = ((1, 2), (1, 4), (4, 2), (4, 8))


def _counts(stats):
    return list(asdict(stats).values())


def _shape_record(trace, l1_kb, l2_kb, associativity, policy):
    options = dict(l2_associativity=associativity, policy=policy)
    record = {
        "workload": trace.name,
        "l1_kb": l1_kb,
        "l2_kb": l2_kb,
        "associativity": associativity,
        "policy": policy.value,
    }
    for replacement in ("lfsr", "lru"):
        stats = simulate_hierarchy(
            trace, kb(l1_kb), kb(l2_kb), l2_replacement=replacement, **options
        )
        record[replacement] = _counts(stats)
    record["writes"] = _counts(count_write_traffic(trace, kb(l1_kb), kb(l2_kb), **options))
    return record


def _l3_record(trace, chip, l3):
    l1_kb, l2_kb, associativity, policy = chip
    l3_kb, l3_associativity = l3
    config = SystemConfig(
        l1_bytes=kb(l1_kb),
        l2_bytes=kb(l2_kb),
        l2_associativity=associativity,
        policy=policy,
    )
    result = evaluate_with_board_cache(
        config, trace, l3_bytes=kb(l3_kb), l3_associativity=l3_associativity
    )
    return {
        "workload": trace.name,
        "l1_kb": l1_kb,
        "l2_kb": l2_kb,
        "associativity": associativity,
        "policy": policy.value,
        "l3_kb": l3_kb,
        "l3_associativity": l3_associativity,
        "l3": [result.l3_hits, result.l3_misses],
    }


def _lru_l1_record(trace, l1_kb, associativity):
    split = evaluate_associative_l1(trace, kb(l1_kb), associativity)
    unified = compare_split_vs_unified(trace, kb(l1_kb), associativity)
    return {
        "workload": trace.name,
        "l1_kb": l1_kb,
        "associativity": associativity,
        "associative_l1": [split.l1_misses, split.n_data_refs],
        "unified_l1": [unified.split_misses, unified.unified_misses, unified.n_refs],
    }


def golden_records():
    records = []
    for name in workload_names():
        trace = get_trace(name, TINY)
        for l1_kb in L1_KB:
            records.append(_shape_record(trace, l1_kb, 0, 4, Policy.CONVENTIONAL))
            for l2_kb in L2_KB:
                for associativity in ASSOCIATIVITIES:
                    for policy in POLICIES:
                        records.append(
                            _shape_record(trace, l1_kb, l2_kb, associativity, policy)
                        )
        for chip in L3_CHIPS:
            for l3 in L3_CACHES:
                records.append(_l3_record(trace, chip, l3))
        for l1_kb, associativity in LRU_L1S:
            records.append(_lru_l1_record(trace, l1_kb, associativity))
    return records


def test_misspath_counts_match_committed_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_records()
    assert len(actual) == len(expected) == 637
    mismatched = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not mismatched, f"{len(mismatched)} records differ; first: {mismatched[0]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(record) for record in golden_records())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
