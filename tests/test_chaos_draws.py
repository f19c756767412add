"""Committed golden of the chaos soaks' seeded draws.

``tests/golden/chaos_draws.json`` pins, for seeds 0–4, what each soak
draws from its seeded RNG:

* the fault schedules of :func:`repro.study.chaos._random_schedule`
  (serial and pooled) and :func:`repro.study.serve_chaos._draw_schedule`;
* the bytes the batch soak's bit rot (``chaos._rot``) and the serve
  soak's memo rot (``serve_chaos._rot_memo_entry``) leave in a fixed
  64-byte file.

``test_same_seed_reproduces_exactly`` compares one run with another; this
file pins the draws themselves, so a change to how a soak draws or damages
cannot pass by being consistently different.

Regenerate (only when the soaks are meant to draw differently)::

    PYTHONPATH=src python tests/test_chaos_draws.py
"""

import json
import random
import tempfile
from pathlib import Path

from repro.study import chaos, serve_chaos

GOLDEN = Path(__file__).parent / "golden" / "chaos_draws.json"

SEEDS = range(5)
ROUNDS = 4
UNITS = ["fig5", "fig6", "table1"]
KEYS = [f"{index:02d}" * 8 for index in range(5)]
ORIGINAL = bytes(range(64))


def _rotted(directory: Path, seed: int):
    """Bytes left by each soak's rot of the same 64-byte file."""
    target = directory / "artefact.json"
    target.write_bytes(ORIGINAL)
    chaos._rot(target, random.Random(seed))
    report = target.read_bytes().hex()
    memo = directory / "store" / "memo"
    memo.mkdir(parents=True)
    entry = memo / "entry.json"
    entry.write_bytes(ORIGINAL)
    name = serve_chaos._rot_memo_entry(directory / "store", random.Random(seed))
    assert name == entry.name
    return report, entry.read_bytes().hex()


def golden_draws():
    records = []
    for seed in SEEDS:
        serial, pooled, serve = (random.Random(seed) for _ in range(3))
        with tempfile.TemporaryDirectory() as scratch:
            report_rot, memo_rot = _rotted(Path(scratch), seed)
        records.append(
            {
                "seed": seed,
                "serial": [
                    chaos._random_schedule(serial, UNITS, False) for _ in range(ROUNDS)
                ],
                "pooled": [
                    chaos._random_schedule(pooled, UNITS, True) for _ in range(ROUNDS)
                ],
                "serve": [
                    list(serve_chaos._draw_schedule(serve, KEYS)) for _ in range(ROUNDS)
                ],
                "report_rot": report_rot,
                "memo_rot": memo_rot,
            }
        )
    return records


def test_chaos_draws_match_committed_golden():
    assert golden_draws() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(record) for record in golden_draws())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
