"""Access and cycle time of one cache organisation.

Read-path structure (Wada / Wilton–Jouppi):

* **data side** — decoder → word line → bit line → sense amplifier;
* **tag side** — (smaller) decoder → word line → bit line → sense
  amplifier → comparator, plus the output multiplexor driver when the
  cache is set-associative (the tag match must select the data way);
* the two sides proceed in parallel; the slower one gates the shared
  **output driver**.

The cycle time adds the bit-line restore (precharge) interval of the
slower-recovering array, i.e. the minimum spacing between the start of
two successive accesses — the quantity the paper uses to set the
processor clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..cache.geometry import CacheGeometry
from ..errors import ModelError
from .organization import (
    ArrayOrganization,
    data_array_shape,
    tag_array_shape,
    tag_bits_per_entry,
)
from .stages import (
    RC_UNIT_NS,
    bitline_rc,
    chain_delay,
    comparator_rc,
    decoder_chain,
    mux_driver_rc,
    output_driver_rc,
    precharge_time,
    way_select_rc,
    wordline_rc,
)
from .technology import Technology

__all__ = ["TimingResult", "access_and_cycle_time", "combine_sides", "data_side", "tag_side"]

#: Bits delivered per array access (8 bytes, per the paper's refill
#: model: a 16-byte line moves as two 8-byte transfers).
OUTPUT_BITS = 64


@dataclass(frozen=True)
class TimingResult:
    """Access/cycle times (ns) and per-stage breakdown for one layout."""

    geometry: CacheGeometry
    organization: ArrayOrganization
    access_ns: float
    cycle_ns: float
    data_side_ns: float
    tag_side_ns: float
    breakdown: Dict[str, float]

    def __post_init__(self) -> None:
        if self.cycle_ns < self.access_ns:
            raise ModelError("cycle time cannot be below access time")


Breakdown = Optional[Dict[str, float]]


def data_side(
    geometry: CacheGeometry, tech: Technology, ndwl: int, ndbl: int, nspd: int,
    breakdown: Breakdown = None,
) -> Tuple[float, float]:
    """(delay, precharge) in ns of the data array split ``(ndwl, ndbl, nspd)``.

    Stage delays go into ``breakdown`` when one is given.  The scalar
    model and the organisation search share this, as they share
    :func:`tag_side` and :func:`combine_sides`.
    """
    scale = tech.time_scale
    breakdown = {} if breakdown is None else breakdown
    rows, cols = data_array_shape(geometry, ndwl, ndbl, nspd)
    mux_ways = max(1, cols * ndwl // OUTPUT_BITS)
    chain = decoder_chain(tech, rows, ndwl * ndbl)
    wordline = wordline_rc(tech, cols)
    bitline = bitline_rc(tech, rows, mux_ways)
    chain = chain.extended("data wordline", wordline).extended("data bitline", bitline)
    delay = chain_delay(tech, chain) + tech.t_sense_data * scale
    for name, rc in zip(chain.names, chain.rcs):
        breakdown[f"data {name}" if "data" not in name else name] = (
            tech.rc_to_delay * rc * scale * RC_UNIT_NS
        )
    breakdown["data sense amp"] = tech.t_sense_data * scale
    return delay, precharge_time(tech, rows, wordline)


def tag_side(
    geometry: CacheGeometry, tech: Technology, ntwl: int, ntbl: int, ntspd: int,
    breakdown: Breakdown = None,
) -> Tuple[float, float]:
    """(delay, precharge) in ns of the tag array split ``(ntwl, ntbl, ntspd)``.

    The delay includes the comparator and, when set-associative, the
    output multiplexor driver.
    """
    scale = tech.time_scale
    breakdown = {} if breakdown is None else breakdown
    rows, cols = tag_array_shape(geometry, ntwl, ntbl, ntspd)
    chain = decoder_chain(tech, rows, ntwl * ntbl)
    wordline = wordline_rc(tech, cols)
    bitline = bitline_rc(tech, rows, max(1, ntspd))
    chain = chain.extended("tag wordline", wordline).extended("tag bitline", bitline)
    delay = chain_delay(tech, chain) + tech.t_sense_tag * scale
    compare = tech.rc_to_delay * RC_UNIT_NS * comparator_rc(
        tech, tag_bits_per_entry(geometry)
    )
    delay += compare * scale
    breakdown["tag path"] = chain_delay(tech, chain)
    breakdown["tag sense amp"] = tech.t_sense_tag * scale
    breakdown["comparator"] = compare * scale
    if not geometry.is_direct_mapped:
        mux = tech.rc_to_delay * RC_UNIT_NS * mux_driver_rc(
            tech, OUTPUT_BITS, geometry.associativity
        )
        delay += mux * scale
        breakdown["mux driver"] = mux * scale
    return delay, precharge_time(tech, rows, wordline)


def combine_sides(
    geometry: CacheGeometry, tech: Technology, data: Tuple[Any, Any], tag: Tuple[Any, Any],
    maximum: Callable[[Any, Any], Any] = max, breakdown: Breakdown = None,
) -> Tuple[Any, Any]:
    """(access, cycle) from each side's ``(delay, precharge)``.

    Only ``+`` and ``maximum`` touch the side values, so with
    ``maximum=numpy.maximum`` broadcast arrays of them give a grid whose
    every cell equals the scalar result bit for bit.
    """
    (data_side_ns, d_pre), (tag_side_ns, t_pre) = data, tag
    scale = tech.time_scale
    breakdown = {} if breakdown is None else breakdown
    out = (
        tech.rc_to_delay * RC_UNIT_NS * output_driver_rc(tech)
        + tech.t_output_intrinsic
    ) * scale
    breakdown["output driver"] = out

    if geometry.is_direct_mapped:
        # The data array drives the output as soon as it is sensed; the
        # tag comparison proceeds in parallel and only validates the
        # result, so it is rarely critical.
        access = maximum(data_side_ns + out, tag_side_ns)
    else:
        # Set-associative: the output driver cannot fire until the tag
        # match has selected a way, and the selected data must traverse
        # the way mux in series.
        way_mux = (
            tech.rc_to_delay * RC_UNIT_NS * way_select_rc(tech, geometry.associativity)
        ) * scale
        breakdown["way select"] = way_mux
        access = maximum(data_side_ns, tag_side_ns) + way_mux + out

    # The slower-recovering array sets the bit-line restore interval.
    precharge = maximum(d_pre, t_pre)
    breakdown["precharge"] = precharge
    return access, access + precharge


def access_and_cycle_time(
    geometry: CacheGeometry,
    organization: ArrayOrganization,
    tech: Technology,
) -> TimingResult:
    """Evaluate one (geometry, organisation) pair under ``tech``.

    Raises
    ------
    ModelError
        If the organisation is infeasible for the geometry.
    """
    org = organization
    breakdown: Dict[str, float] = {}
    data = data_side(geometry, tech, org.ndwl, org.ndbl, org.nspd, breakdown)
    tag = tag_side(geometry, tech, org.ntwl, org.ntbl, org.ntspd, breakdown)
    access, cycle = combine_sides(geometry, tech, data, tag, breakdown=breakdown)
    return TimingResult(
        geometry=geometry,
        organization=organization,
        access_ns=access,
        cycle_ns=cycle,
        data_side_ns=data[0],
        tag_side_ns=tag[0],
        breakdown=breakdown,
    )
