"""Seeded chaos soak for `repro serve`: availability + byte-identity.

The batch soak (:mod:`repro.study.chaos`) proves a *results tree*
converges after arbitrary fault interleavings.  The serve soak proves
the *service* holds its contract while being actively sabotaged:

1. compute a fault-free serial reference answer for every query in the
   soak's request mix (plain :func:`repro.core.evaluate.evaluate` —
   no service, no pool, no memo);
2. for each round, draw a serve-side fault schedule from a seeded RNG
   (slow workers, mid-request pool deaths, poisoned memo writes,
   injected per-key failures), install it via ``REPRO_FAULTS``, rebuild
   the backend so pool workers inherit it, and fire a concurrent burst
   of requests at a live :class:`~repro.serve.harness.BackgroundServer`;
3. between rounds, bit-rot a surviving memo entry directly on disk;
4. after the rounds, a fault-free **availability pass** must answer
   every query 200.

Every single 200 — during the rounds, under any fault mix — must be
byte-identical to its serial reference; every refusal must be a typed
503/504 carrying ``Retry-After``; any other status, a missing header,
or one wrong byte fails the soak.  Schedules are drawn randomly but
recorded, so a failing seed replays exactly.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..core.config import SystemConfig
from ..core.evaluate import evaluate
from ..runner import faults
from ..serve import (
    BackgroundServer,
    ServePolicy,
    canonical_json,
    point_key,
    point_record,
)
from ..units import kb

__all__ = ["ServeChaosResult", "run_serve_chaos"]

#: The soak's query mix: small enough to keep a round fast, varied
#: enough to mix memo hits, cold computes, and coalesced duplicates.
_POINTS: Tuple[Tuple[int, int], ...] = ((1, 0), (1, 8), (2, 0), (2, 16), (4, 32))


@dataclass
class ServeChaosResult:
    """Everything one seeded serve soak did, and whether it held."""

    seed: int
    rounds: int
    schedules: List[str] = field(default_factory=list)
    rotted: List[str] = field(default_factory=list)
    requests: int = 0
    ok: int = 0
    refused_503: int = 0
    refused_504: int = 0
    quarantined: int = 0
    degraded_rounds: int = 0
    wrong_answers: List[str] = field(default_factory=list)
    missing_retry_after: List[str] = field(default_factory=list)
    unexpected: List[str] = field(default_factory=list)
    availability_ok: bool = False

    @property
    def passed(self) -> bool:
        """The soak's verdict: zero wrong answers, typed refusals only,
        and full availability once the faults stop."""
        return (
            not self.wrong_answers
            and not self.missing_retry_after
            and not self.unexpected
            and self.availability_ok
        )

    def to_record(self) -> dict:
        return {
            "schema": 1,
            "kind": "serve-chaos",
            "seed": self.seed,
            "rounds": self.rounds,
            "schedules": list(self.schedules),
            "rotted": list(self.rotted),
            "requests": self.requests,
            "ok": self.ok,
            "refused_503": self.refused_503,
            "refused_504": self.refused_504,
            "quarantined": self.quarantined,
            "degraded_rounds": self.degraded_rounds,
            "wrong_answers": list(self.wrong_answers),
            "missing_retry_after": list(self.missing_retry_after),
            "unexpected": list(self.unexpected),
            "availability_ok": self.availability_ok,
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = [f"serve chaos soak seed={self.seed}: {self.rounds} round(s)"]
        for index, schedule in enumerate(self.schedules):
            lines.append(f"  round {index}: {schedule or '(no faults)'}")
        for target in self.rotted:
            lines.append(f"  bit rot: {target}")
        lines.append(
            f"  {self.requests} request(s): {self.ok} served, "
            f"{self.refused_503} shed/failed (503), "
            f"{self.refused_504} deadline (504), "
            f"{self.quarantined} memo entr(ies) quarantined, "
            f"{self.degraded_rounds} degraded round(s)"
        )
        if self.passed:
            lines.append(
                "held: every 200 byte-identical to serial compute, every "
                "refusal typed with Retry-After, full availability restored"
            )
        else:
            for key in self.wrong_answers:
                lines.append(f"  WRONG ANSWER: {key}")
            for key in self.missing_retry_after:
                lines.append(f"  refusal without Retry-After: {key}")
            for detail in self.unexpected:
                lines.append(f"  unexpected response: {detail}")
            if not self.availability_ok:
                lines.append("  availability pass FAILED after faults cleared")
            lines.append("FAILED: the service broke its contract under chaos")
        return "\n".join(lines)


def _payloads(scale: float) -> Dict[str, dict]:
    """The query mix, keyed by canonical hash (== served unit id)."""
    mix = {}
    for l1_kb, l2_kb in _POINTS:
        config = SystemConfig(l1_bytes=kb(l1_kb), l2_bytes=kb(l2_kb))
        key = point_key(config, "gcc1", scale)
        mix[key] = {
            "l1_kb": l1_kb,
            "l2_kb": l2_kb,
            "workload": "gcc1",
            "scale": scale,
        }
    return mix


def _references(payload_by_key: Dict[str, dict], scale: float) -> Dict[str, bytes]:
    """Fault-free serial answers: the bytes every 200 must match."""
    references = {}
    for key, payload in payload_by_key.items():
        config = SystemConfig(
            l1_bytes=kb(payload["l1_kb"]), l2_bytes=kb(payload["l2_kb"])
        )
        perf = evaluate(config, "gcc1", scale=scale)
        references[key] = canonical_json(point_record(perf)).encode("utf-8")
    return references


def _draw_schedule(
    rng: random.Random, keys: List[str]
) -> Tuple[str, "str | None"]:
    """One round's serve-side fault mix (possibly empty).

    Returns ``(schedule, doomed_key)``: when the round injects per-key
    failures, ``doomed_key``'s memo entry is evicted first so the
    request actually reaches the backend (a memo hit would dodge the
    fault) and the exhausted retries surface as a typed 503.
    """
    kind = rng.choice(
        ["none", "slow", "pooldeath", "poison", "fail", "poison+slow"]
    )
    if kind == "none":
        return "", None
    if kind == "slow":
        return f"slowworker=*:{rng.choice([0.1, 0.2, 0.3])}", None
    if kind == "pooldeath":
        return f"pooldeath=*:{rng.randint(1, 2)}", None
    if kind == "poison":
        return f"poisonmemo=*:{rng.randint(1, 2)}", None
    if kind == "fail":
        # Canonical keys are deterministic, so a per-key fault can
        # target one: enough injected failures to exhaust the retry
        # budget and surface as a typed 503.
        doomed = rng.choice(keys)
        return f"fail={doomed}:9", doomed
    return "poisonmemo=*:1,slowworker=*:0.1", None


def _evict(store: Path, key: str) -> None:
    """Drop a memo entry (and its sidecar): a clean cold miss."""
    path = store / "memo" / f"{key}.json"
    path.unlink(missing_ok=True)
    path.with_name(path.name + ".sha256").unlink(missing_ok=True)


def _rot_memo_entry(store: Path, rng: random.Random) -> "str | None":
    """Flip one bit in a surviving memo entry, behind the service's back."""
    memo = store / "memo"
    entries = sorted(
        p
        for p in memo.glob("*.json")
        if p.name != "MANIFEST.json" and p.stat().st_size > 0
    )
    if not entries:
        return None
    target = rng.choice(entries)
    faults.flip_bit(target, rng.randrange(target.stat().st_size), rng.randrange(8))
    return target.name


def _check(
    result: ServeChaosResult,
    key: str,
    status: int,
    headers: Dict[str, str],
    body: bytes,
    reference: bytes,
) -> None:
    result.requests += 1
    if status == 200:
        result.ok += 1
        if body != reference:
            result.wrong_answers.append(key)
    elif status in (503, 504):
        if status == 503:
            result.refused_503 += 1
        else:
            result.refused_504 += 1
        if "retry-after" not in headers:
            result.missing_retry_after.append(key)
    else:
        result.unexpected.append(f"{key}: HTTP {status}")


def run_serve_chaos(
    out_dir: Union[str, Path],
    *,
    seed: int = 0,
    rounds: int = 4,
    requests_per_round: int = 8,
    workers: "Union[None, int, str]" = 2,
    scale: float = 0.02,
) -> ServeChaosResult:
    """Run one seeded serve soak (see module docstring).

    Never raises for injected damage — the returned result's
    :attr:`ServeChaosResult.passed` says whether the contract held.
    """
    store = Path(out_dir) / "store"
    payload_by_key = _payloads(scale)
    references = _references(payload_by_key, scale)
    keys = sorted(payload_by_key)
    rng = random.Random(seed)
    result = ServeChaosResult(seed=seed, rounds=rounds)
    policy = ServePolicy(
        deadline_s=60.0,
        backoff_s=0.02,
        breaker_cooldown_s=0.2,
        retry_after_s=0.5,
    )
    with faults.env_scope() as use_plan, BackgroundServer(
        store, workers=workers, policy=policy
    ) as server:
        for _ in range(rounds):
            schedule, doomed = _draw_schedule(rng, keys)
            result.schedules.append(schedule)
            # Rebuild the backend so freshly forked workers inherit
            # this round's plan.
            use_plan(schedule)
            server.call(server.app.reset_backend)
            picks = [rng.choice(keys) for _ in range(requests_per_round)]
            if doomed is not None:
                _evict(store, doomed)
                picks.append(doomed)
            with ThreadPoolExecutor(max_workers=4) as clients:
                futures = [
                    (
                        key,
                        clients.submit(
                            server.request, "POST", "/v1/evaluate",
                            payload_by_key[key],
                        ),
                    )
                    for key in picks
                ]
                for key, future in futures:
                    status, headers, body = future.result()
                    _check(result, key, status, headers, body, references[key])
            if server.app.degraded_reason is not None:
                result.degraded_rounds += 1
            rotted = _rot_memo_entry(store, rng)
            if rotted is not None:
                result.rotted.append(rotted)

        # Availability pass: faults off, backend fresh — every
        # query must be served, whatever the rounds did.
        use_plan("")
        server.call(server.app.reset_backend)
        final_ok = True
        for key in keys:
            status, headers, body = server.request(
                "POST", "/v1/evaluate", payload_by_key[key]
            )
            _check(result, key, status, headers, body, references[key])
            if status != 200 or body != references[key]:
                final_ok = False
        result.availability_ok = final_ok
        result.quarantined = server.app.memo.quarantined
    return result
