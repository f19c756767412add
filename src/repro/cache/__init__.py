"""Trace-driven cache simulators.

The paper restricts first-level caches to direct-mapped, which makes the
L1 pass vectorisable (:mod:`repro.cache.directmap`); only the L1 miss
stream — a few percent of references — reaches the Python-level replay
kernel (:mod:`repro.cache.misspath`).  :mod:`repro.cache.hierarchy` wires
the two together under the paper's two replacement disciplines:

* ``Policy.CONVENTIONAL`` — the baseline (non-exclusive) two-level
  organisation of §4–§7;
* ``Policy.EXCLUSIVE`` — the paper's contribution (§8): an L2 hit moves
  the line up to L1 and out of L2, and every L1 victim is written into
  the L2, so capacity is the *sum* of the levels.

:mod:`repro.cache.reference` and :mod:`repro.cache.l2` hold deliberately
slow, obviously-correct simulators used by the test suite to validate
the fast path.
"""

from .directmap import DirectMappedFilter, direct_mapped_filter
from .geometry import CacheGeometry
from .hierarchy import MissStream, Policy, l1_miss_stream, simulate_hierarchy
from .l2 import SetAssociativeCache
from .replacement import LfsrReplacement, LruReplacement, ReplacementPolicy
from .results import HierarchyStats

__all__ = [
    "CacheGeometry",
    "DirectMappedFilter",
    "direct_mapped_filter",
    "SetAssociativeCache",
    "ReplacementPolicy",
    "LfsrReplacement",
    "LruReplacement",
    "Policy",
    "MissStream",
    "l1_miss_stream",
    "simulate_hierarchy",
    "HierarchyStats",
]
