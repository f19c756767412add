"""One pass of the sweep or replay workload, run in a fresh process.

Each pass pays every memo cold, as a CLI invocation does.  A pass does
its set-up (imports and seeded input generation), then the timed work,
and returns one JSON document: set-up and wall time, CPU time, peak RSS,
the exact simulated counts with their digest, and (traced) the spans and
per-layer totals.
"""

import resource
import time

import checks
import layers
from spans import Tracer
from workloads import REPLAY_L1_KB, REPLAY_L2_KB, replay_traces, sweep_trace

__all__ = ["run_pass"]


class _Window:
    """The timed part of a pass, on the host clock and the tracer's."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.cpu = time.process_time()
        self.start = time.perf_counter()
        self.span_start = self.tracer.now() if self.tracer else 0.0
        return self

    def __exit__(self, *exc_info):
        self.wall_s = time.perf_counter() - self.start
        self.cpu_s = time.process_time() - self.cpu


def _sweep_inputs(seed, scale):
    from repro.core import explorer

    return explorer, sweep_trace(seed, scale), explorer.design_space()


def _sweep(inputs, tracer):
    explorer, trace, configs = inputs
    stats_before = layers.stats_memo()
    with _Window(tracer) as window:
        if tracer is None:
            result = explorer.run_sweep(trace, configs)
        else:
            with tracer.span("runner", request=True) as span:
                result = explorer.run_sweep(trace, configs)
                span["attrs"]["units"] = len(result.outcomes)
    values = result.values()
    return window, {
        "instructions": trace.n_instructions * len(configs),
        "attempted": len(configs),
        # Without keep_going the sweep stops at the first failing point,
        # so every point without a value counts, not just that one.
        "failed": len(configs) - len(values),
        "records": [checks.sweep_record(perf) for perf in values],
        "stats_memo": [stats_before, layers.stats_memo()],
    }


def _replay_inputs(seed, scale):
    """The seeded traces, and (study, module, function, options) per replay."""
    from repro.cache import hierarchy
    from repro.ext import stream_buffer, victim, writes
    from repro.units import kb

    conventional, exclusive = hierarchy.Policy.CONVENTIONAL, hierarchy.Policy.EXCLUSIVE
    l2 = kb(REPLAY_L2_KB)
    studies = (
        ("l2_4way_conventional", hierarchy, "simulate_hierarchy",
         dict(l2_bytes=l2, l2_associativity=4, policy=conventional)),
        ("l2_4way_exclusive", hierarchy, "simulate_hierarchy",
         dict(l2_bytes=l2, l2_associativity=4, policy=exclusive)),
        ("l2_dm_conventional", hierarchy, "simulate_hierarchy",
         dict(l2_bytes=l2, l2_associativity=1, policy=conventional)),
        ("victim_cache", victim, "simulate_victim_cache", {}),
        ("stream_buffer", stream_buffer, "simulate_stream_buffer", {}),
        ("writes_exclusive", writes, "count_write_traffic",
         dict(l2_bytes=l2, l2_associativity=4, policy=exclusive)),
    )
    return replay_traces(seed, scale), studies


def _replay(inputs, tracer):
    from repro.units import kb

    traces, studies = inputs
    results = []
    with _Window(tracer) as window:
        for trace in traces:
            for l1_kb in REPLAY_L1_KB:
                for study, module, function, options in studies:
                    # Looked up per call, as the program does, so the
                    # traced run's wrappers see the call.
                    run = getattr(module, function)
                    results.append(
                        (trace.name, l1_kb, study, run(trace, kb(l1_kb), **options)))
    per_trace = len(REPLAY_L1_KB) * len(studies)
    return window, {
        "instructions": sum(trace.n_instructions for trace in traces) * per_trace,
        "attempted": len(results),
        "failed": 0,
        "records": [checks.replay_record(*item) for item in results],
        "stats_memo": [None, None],
    }


_WORKLOADS = {"sweep": (_sweep_inputs, _sweep), "replay": (_replay_inputs, _replay)}


def run_pass(workload, seed, scale, traced, started, setup_only=False):
    """Run one pass; ``started`` is the host time the process began.

    With ``setup_only`` the pass stops after its set-up (imports and
    input generation) and returns only ``setup_s``: an extra set-up
    sample at a fraction of a pass's cost.
    """
    tracer = None
    if traced:
        tracer = Tracer()
        layers.instrument(tracer)
    make_inputs, body = _WORKLOADS[workload]
    inputs = make_inputs(seed, scale)
    if setup_only:
        return {"setup_s": time.perf_counter() - started}
    window, outcome = body(inputs, tracer)
    outcome["setup_s"] = window.start - started
    outcome["wall_s"] = window.wall_s
    outcome["cpu_s"] = window.cpu_s
    outcome["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcome["digest"] = checks.digest(outcome["records"])
    outcome["mismatches"] = checks.invariant_mismatches(workload, outcome["records"])
    stats_before, stats_after = outcome.pop("stats_memo")
    if tracer is not None:
        tracer.restore()
        inside = [s for s in tracer.spans if s["start"] >= window.span_start]
        outcome["totals"] = layers.layer_totals(
            tracer.spans, window.wall_s, inside, stats_before, stats_after)
        outcome["spans"] = tracer.spans
    return outcome
