"""Committed golden output of the organisation search.

``tests/golden/timing_optimal.json`` holds, for every geometry below, the
organisation ``optimal_timing`` chose and the ``repr`` of its times.  The
model uses only ``+ - * /`` on floats, so the reprs are exact on any IEEE
platform and the test compares them as strings.

Regenerate (only when the model itself is meant to change)::

    PYTHONPATH=src python tests/test_timing_golden.py
"""

import json
from dataclasses import asdict
from pathlib import Path

from repro.timing.optimal import optimal_timing
from repro.timing.technology import TECH_05UM, TECH_08UM
from repro.units import kb

GOLDEN = Path(__file__).parent / "golden" / "timing_optimal.json"

TECHS = {"TECH_05UM": TECH_05UM, "TECH_08UM": TECH_08UM}
SIZES_KB = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
ASSOCIATIVITIES = (1, 2, 4, 8)
LINE_SIZES = (16, 32, 64)


def golden_records():
    records = []
    for tech_name, tech in TECHS.items():
        for size_kb in SIZES_KB:
            for associativity in ASSOCIATIVITIES:
                for line_size in LINE_SIZES:
                    result = optimal_timing(kb(size_kb), associativity, line_size, tech)
                    records.append(
                        {
                            "tech": tech_name,
                            "size_kb": size_kb,
                            "associativity": associativity,
                            "line_size": line_size,
                            "organization": asdict(result.organization),
                            "access_ns": repr(result.access_ns),
                            "cycle_ns": repr(result.cycle_ns),
                            "data_side_ns": repr(result.data_side_ns),
                            "tag_side_ns": repr(result.tag_side_ns),
                        }
                    )
    return records


def test_optimal_timing_matches_committed_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_records()
    assert len(actual) == len(expected) == 264
    mismatched = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not mismatched, f"{len(mismatched)} geometries differ; first: {mismatched[0]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(record) for record in golden_records())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
