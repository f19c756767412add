"""Organisation search: the fastest layout for each cache geometry.

The paper always organised each memory "to give the highest
performance": the search keeps the feasible organisation with the
minimum cycle time (ties broken by access time, then by fewest
subarrays, which is also the cheapest in area).

The data side depends only on the data split and the tag side only on
the tag split, so each feasible split is scored once and the pairs are
combined on a numpy grid by :func:`~repro.timing.model.combine_sides`.
IEEE ``+`` and ``max`` round as Python floats do, so every cell equals
the scalar model's value and a stable lexsort picks the organisation a
first-minimum scan of :func:`~repro.timing.organization.enumerate_organizations`
would.  Results are memoised — the design-space sweeps ask for the same
handful of geometries thousands of times.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from .model import TimingResult, access_and_cycle_time, combine_sides, data_side, tag_side
from .organization import ArrayOrganization, data_candidates, tag_candidates
from .technology import TECH_05UM, Technology

__all__ = ["optimal_timing"]


@lru_cache(maxsize=4096)
def _optimal_timing_cached(
    size_bytes: int, line_size: int, associativity: int, tech: Technology
) -> TimingResult:
    geometry = CacheGeometry(
        size_bytes, line_size=line_size, associativity=associativity
    )
    data, tags = data_candidates(geometry), tag_candidates(geometry)
    data_ns, data_pre = np.array([data_side(geometry, tech, *t) for t in data]).T
    tag_ns, tag_pre = np.array([tag_side(geometry, tech, *t) for t in tags]).T
    # Rows are data layouts, columns tag layouts: enumeration order.
    access, cycle = combine_sides(
        geometry, tech, (data_ns[:, None], data_pre[:, None]), (tag_ns, tag_pre),
        np.maximum,
    )
    subarrays = np.add.outer([w * b for w, b, _ in data], [w * b for w, b, _ in tags])
    # lexsort is stable and its last key is the primary one.
    order = np.lexsort((subarrays.ravel(), access.ravel(), cycle.ravel()))
    best_data, best_tag = divmod(int(order[0]), len(tags))
    organization = ArrayOrganization(*data[best_data], *tags[best_tag])
    return access_and_cycle_time(geometry, organization, tech)


def optimal_timing(
    size_bytes: int,
    associativity: int = 1,
    line_size: int = DEFAULT_LINE_SIZE,
    tech: Technology = TECH_05UM,
) -> TimingResult:
    """Fastest access/cycle times for a cache of ``size_bytes``.

    Parameters
    ----------
    size_bytes:
        Data capacity (power of two).
    associativity:
        Ways per set (1 or 4 in the paper).
    line_size:
        Line size in bytes (16 in the paper).
    tech:
        Technology point; defaults to the paper's scaled 0.5 µm process.

    Returns
    -------
    TimingResult
        The minimum-cycle-time organisation and its breakdown.
    """
    return _optimal_timing_cached(size_bytes, line_size, associativity, tech)
