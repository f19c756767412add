"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (host time, tracing
off); with ``--trace 1`` the run alternates untraced and traced
measurements and reports the per-layer metrics of the traced ones and
the tracing overhead.  The line before it is a summary with the samples
behind each median.

A run repeats its measurement for about ``--seconds`` (at least
``MIN_REPEATS`` times) and reports medians.  Sweep and replay passes
each run in a fresh Python process, so every pass pays the program's
memos cold, as one CLI invocation does; each serve session starts a
fresh server on a fresh store.  An untraced run takes at least
``SETUP_SAMPLES`` set-up samples, adding set-up-only passes (or
sessions) where the measured ones are fewer, and reports their median.

Metric names and units are read from ``BENCHMARK.json``.

The program under test is imported from ``src/`` of the checkout that
holds this file; without it the run fails (exit 2, no result line).
"""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from statistics import median

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Fewest set-up samples behind the median ``setup_s`` of a run.
SETUP_SAMPLES = 9

#: Times ``import repro.serve`` in a fresh interpreter.
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import repro.serve; "
    "print(time.perf_counter() - started)"
)

#: Scale divisor of ``--tiny`` (self-test only: seconds, not minutes).
TINY = 50.0

PASS_TIMEOUT_S = 170.0


class BenchError(Exception):
    """A pass of the benchmark failed to run."""


def _run_child(command, what):
    """Run ``command`` with the program importable; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} exceeded {PASS_TIMEOUT_S:g} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{what} failed (exit {done.returncode}):\n{done.stderr.strip()}")
    return lines[-1]


def _run_child_pass(workload, seed, scale, traced, setup_only=False):
    command = [
        sys.executable, os.path.abspath(__file__), "--pass", workload,
        "--seed", str(seed), "--scale", repr(scale), "--trace", str(int(traced)),
    ]
    if setup_only:
        command.append("--setup-only")
    return json.loads(_run_child(command, f"{workload} pass"))


def _fresh_import_s():
    """Import time of the serve package in a fresh interpreter."""
    return float(_run_child([sys.executable, "-c", IMPORT_PROBE], "import probe"))


def _repeat(measure, seconds, traced, min_repeats):
    """Repeat ``measure(traced)`` for about ``seconds`` per kind.

    Traced runs alternate untraced and traced measurements, so both see
    the same host conditions.  Returns ``{False: [...], True: [...]}``.
    """
    kinds = (False, True) if traced else (False,)
    outcomes = {kind: [] for kind in kinds}
    round_s = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for kind in kinds:
            outcomes[kind].append(measure(kind))
        round_s.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if (len(outcomes[False]) >= min_repeats
                and elapsed + median(round_s) > seconds * len(kinds)):
            return outcomes


def _write_spans(workload, seed, spans):
    from repro.runner.atomic import write_text_atomic

    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.jsonl")
    text = "".join(json.dumps(span, sort_keys=True) + "\n" for span in spans)
    write_text_atomic(path, text, track=False)
    return path


def _percentile(values, fraction):
    """Nearest rank: the smallest value with ``fraction`` of all at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def _end_to_end(values):
    import layers

    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.metric_units("end_to_end").items()}


def _overhead_pct(untraced_rates, traced_rates):
    return (median(untraced_rates) / median(traced_rates) - 1.0) * 100.0


def _pass_workload(args, scale, min_repeats, setup_samples):
    """sweep / replay: fresh-process passes, checked against each other."""
    import checks
    import layers
    outcomes = _repeat(
        lambda traced: _run_child_pass(args.workload, args.seed, scale, traced),
        args.seconds, args.trace, min_repeats)
    everything = [o for kind in outcomes.values() for o in kind]
    digests = {o["digest"] for o in everything}
    expected = checks.expected_digest(args.workload, args.seed, scale)
    digest_ok = len(digests) == 1 and (expected is None or digests == {expected})
    attempted = sum(o["attempted"] for o in everything)
    mismatched = sum(o["mismatches"] for o in everything)
    if not digest_ok:
        # A wrong or unrepeatable result fails every operation of the run.
        failed = attempted
    else:
        failed = sum(o["attempted"] if o["mismatches"] else o["failed"] for o in everything)
    untraced = outcomes[False]
    rates = [o["attempted"] / o["wall_s"] for o in untraced]
    setups = [o["setup_s"] for o in untraced]
    while not args.trace and len(setups) < setup_samples:
        setups.append(_run_child_pass(args.workload, args.seed, scale, False,
                                      setup_only=True)["setup_s"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "passes": len(untraced),
        "pass_wall_s": [round(o["wall_s"], 3) for o in untraced],
        "pass_cpu_s": [round(o["cpu_s"], 3) for o in untraced],
        "setup_samples_s": [round(value, 3) for value in setups],
        "sim_minstr_per_s": median(o["instructions"] / o["wall_s"] / 1e6 for o in untraced),
        "digest": sorted(digests),
        "expected_digest": expected,
        "invariant_mismatches": mismatched,
        "failed_ratio": failed / attempted,
    }
    if args.trace:
        traced = outcomes[True]
        totals = layers.merge_totals(o["totals"] for o in traced)
        overhead = _overhead_pct(rates, [o["attempted"] / o["wall_s"] for o in traced])
        metrics = layers.per_layer_metrics(totals, overhead)
        spans = [dict(span, **{"pass": index})
                 for index, outcome in enumerate(traced) for span in outcome["spans"]]
        summary["spans_file"] = _write_spans(args.workload, args.seed, spans)
    else:
        # Peak RSS: this process plus the largest pass (one runs at a time).
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = _end_to_end({
            "ops_per_s": median(rates),
            "peak_rss_mb": (own_kb + max(o["peak_rss_kb"] for o in everything)) / 1024.0,
            "setup_s": median(setups),
        })
    result = {"correct": digest_ok and mismatched == 0 and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, result


def _serve_workload(args, scales, min_repeats, setup_samples):
    """serve: repeated sessions over one seeded stream, checked in-process."""
    import itertools

    import layers
    import serve_mix
    from workloads import serve_points, serve_stream

    from repro.serve.compute import normalize_point, point_key

    sessions = []
    store_ids = itertools.count()

    def open_session(traced):
        # Set-up: the program's import in a fresh interpreter (this
        # process imported it once already), inputs and server start.
        import_s = _fresh_import_s()
        started = time.perf_counter()
        points = serve_points(scales)
        stream = serve_stream(args.seed, len(points))
        keys = [point_key(*normalize_point(point)) for point in points]
        store = os.path.join(WORK_DIR, f"serve-store-{next(store_ids)}")
        session = serve_mix.Session(store, points, stream, keys, traced=traced)
        session.setup_s = import_s + time.perf_counter() - started
        return session

    def measure(traced):
        session = open_session(traced)
        session.run()
        session.close()
        sessions.append(session)
        return session

    outcomes = _repeat(measure, args.seconds, args.trace, min_repeats)
    setups = [session.setup_s for session in outcomes[False]]
    while not args.trace and len(setups) < setup_samples:
        session = open_session(False)
        session.close()
        setups.append(session.setup_s)
    # Checks run after every timed window, so the reference computation
    # never warms a pool worker (workers fork from this process).
    samples = [sample for session in sessions for sample in session.samples]
    mismatched = serve_mix.check_bodies(sessions[0].points, samples)
    attempted = len(samples)
    answered = sum(sample["status"] == 200 for sample in samples)
    failed = attempted - answered + mismatched

    def rate(session):
        return sum(s["status"] == 200 for s in session.samples) / session.wall_s

    def latencies(chosen, source, fraction):
        values = [s["latency_s"] for session in chosen for s in session.samples
                  if s["source"] == source]
        if not values:
            return 0, 0.0, 0.0
        return len(values), median(values) * 1e3, _percentile(values, fraction) * 1e3

    measured = outcomes[True] if args.trace else outcomes[False]
    n_cold, cold_p50, cold_p90 = latencies(measured, "cold", 0.90)
    n_warm, warm_p50, warm_p99 = latencies(measured, "memo", 0.99)
    untraced = outcomes[False]
    summary = {
        "workload": "serve",
        "seed": args.seed,
        "scales": list(scales),
        "sessions": len(untraced),
        "session_wall_s": [round(s.wall_s, 3) for s in untraced],
        "setup_samples_s": [round(value, 4) for value in setups],
        "requests": [len(s.samples) for s in untraced],
        "cold": {"n": n_cold, "p50_ms": cold_p50, "p90_ms": cold_p90},
        "warm": {"n": n_warm, "p50_ms": warm_p50, "p99_ms": warm_p99},
        "coalesced": sum(s["source"] == "coalesced" for m in measured for s in m.samples),
        "body_mismatches": mismatched,
        "failed_ratio": failed / max(1, attempted),
    }
    if args.trace:
        traced = outcomes[True]
        totals = layers.merge_totals(session.layer_totals() for session in traced)
        overhead = _overhead_pct([rate(s) for s in untraced], [rate(s) for s in traced])
        metrics = layers.per_layer_metrics(totals, overhead, {
            "serve.cold.requests": n_cold / len(traced), "serve.cold.p50_ms": cold_p50,
            "serve.cold.p90_ms": cold_p90, "serve.warm.requests": n_warm / len(traced),
            "serve.warm.p50_ms": warm_p50, "serve.warm.p99_ms": warm_p99,
        })
        spans = [dict(span, session=index)
                 for index, session in enumerate(traced) for span in session.tracer.spans]
        summary["spans_file"] = _write_spans("serve", args.seed, spans)
    else:
        metrics = _end_to_end({
            "ops_per_s": median(rate(s) for s in untraced),
            "peak_rss_mb": max(s.peak_rss_kb for s in untraced) / 1024.0,
            "setup_s": median(setups),
        })
    result = {"correct": mismatched == 0 and answered > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return summary, result


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "replay", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"divide every trace scale by {TINY:g} and measure once "
                             "(self-test only)")
    parser.add_argument("--pass", dest="pass_workload", choices=("sweep", "replay"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_workload is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is missing ({SRC}/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.pass_workload is not None:
        import passes

        outcome = passes.run_pass(args.pass_workload, args.seed, args.scale,
                                  bool(args.trace), STARTED, args.setup_only)
        print(json.dumps(outcome))
        return 0

    import workloads

    min_repeats = 1 if args.tiny else workloads.MIN_REPEATS
    setup_samples = 1 if args.tiny else SETUP_SAMPLES
    shrink = TINY if args.tiny else 1.0
    try:
        if args.workload == "serve":
            scales = tuple(scale / shrink for scale in workloads.SERVE_SCALES)
            summary, result = _serve_workload(args, scales, min_repeats, setup_samples)
        else:
            scale = (workloads.SWEEP_SCALE if args.workload == "sweep"
                     else workloads.REPLAY_SCALE) / shrink
            summary, result = _pass_workload(args, scale, min_repeats, setup_samples)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
