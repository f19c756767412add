"""The separable organisation search against a brute-force oracle.

The oracle scores every (data layout, tag layout) pair with the scalar
model and keeps the first minimum of (cycle, access, subarrays) in
enumeration order.  Every geometry of the paper's design space has
several organisations tied on (cycle, access), and most several tied on
the full key, so equality here also pins the tie-break.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.timing.model import access_and_cycle_time
from repro.timing.optimal import _optimal_timing_cached
from repro.timing.organization import enumerate_organizations
from repro.timing.technology import TECH_05UM
from repro.units import kb


def pairwise_optimum(geometry, tech):
    best, best_key = None, None
    for organization in enumerate_organizations(geometry):
        result = access_and_cycle_time(geometry, organization, tech)
        key = (
            result.cycle_ns,
            result.access_ns,
            organization.data_subarrays + organization.tag_subarrays,
        )
        if best_key is None or key < best_key:
            best, best_key = result, key
    return best


@pytest.mark.parametrize("associativity", [1, 4])
@pytest.mark.parametrize("size_kb", [1, 2, 4, 8, 16, 32, 64, 128, 256])
def test_search_equals_pairwise_oracle(size_kb, associativity):
    geometry = CacheGeometry(kb(size_kb), line_size=16, associativity=associativity)
    expected = pairwise_optimum(geometry, TECH_05UM)
    _optimal_timing_cached.cache_clear()
    actual = _optimal_timing_cached(kb(size_kb), 16, associativity, TECH_05UM)
    assert actual == expected
    assert repr(actual) == repr(expected)
