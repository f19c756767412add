"""Which program calls the traced run wraps, and the per-layer metrics.

Each layer is instrumented at the public functions the program resolves
at call time (module globals and class attributes), so the traced run
sees the same calls as the untraced one without any change to ``src/``.
Memo counters come from ``cache_info()`` of the layer's memo where the
program has one; without it every call counts as computed.

:func:`layer_totals` folds one pass's spans into additive totals,
:func:`merge_totals` adds passes together and :func:`per_layer_metrics`
turns the totals into the named metrics, per pass.
"""

import importlib
import json
from pathlib import Path

from spans import self_times

__all__ = [
    "metric_units",
    "instrument",
    "instrument_serve",
    "layer_totals",
    "merge_totals",
    "per_layer_metrics",
    "stats_memo",
]

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Spans the benchmark opens around a whole request of the workload (a
#: sweep, one client request).  They name no program layer, so their
#: self time is not part of ``trace.accounted_pct``.
REQUEST_ROOTS = frozenset({"runner", "serve.request"})


def metric_units(kind):
    """``{name: unit}`` of the ``kind`` metrics in BENCHMARK.json, in order."""
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _module(name):
    # ``from repro.core import evaluate`` would give the function that
    # the package re-exports under the module's name.
    return importlib.import_module(name)


def _misses_of(owner, attribute):
    """Miss counter of the memo ``owner.attribute``, or None without one."""
    memo = getattr(owner, attribute, None)
    if memo is None or not hasattr(memo, "cache_info"):
        return None
    return lambda: memo.cache_info().misses


def stats_memo():
    """Hit/miss counters of ``evaluate``'s simulation memo, or None."""
    evaluate = _module("repro.core.evaluate")
    memo = getattr(evaluate, "_cached_stats", None)
    if memo is None or not hasattr(memo, "cache_info"):
        return None
    info = memo.cache_info()
    return [info.hits, info.misses]


def instrument(tracer):
    """Wrap every layer the sweep and replay workloads reach."""
    area_model = _module("repro.area.model")
    hierarchy = _module("repro.cache.hierarchy")
    evaluate = _module("repro.core.evaluate")
    explorer = _module("repro.core.explorer")
    tpi = _module("repro.core.tpi")
    stream_buffer = _module("repro.ext.stream_buffer")
    victim = _module("repro.ext.victim")
    writes = _module("repro.ext.writes")
    optimal = _module("repro.timing.optimal")
    synthetic = _module("repro.traces.synthetic")

    tracer.wrap(
        synthetic.SyntheticWorkload, "generate", "traces.generate",
        describe=lambda a, k, r: {"instructions": r.n_instructions},
    )
    l1_misses = _misses_of(hierarchy, "l1_miss_stream")
    for module in (hierarchy, victim, stream_buffer, writes):
        tracer.wrap(
            module, "l1_miss_stream", "cache.l1", misses=l1_misses,
            describe=lambda a, k, r: {
                "events": len(r), "refs": r.n_instructions + r.n_data_refs,
            },
        )

    def l2_counts(args, kwargs, stats):
        return {"hits": stats.l2_hits, "misses": stats.l2_misses,
                "has_l2": int(stats.has_l2)}

    # evaluate() reaches the L2 through its own module global; replay
    # calls hierarchy.simulate_hierarchy directly, one request per call.
    for module in (evaluate, hierarchy):
        tracer.wrap(module, "simulate_hierarchy", "cache.l2", request=module is hierarchy,
                    describe=l2_counts)
    tracer.wrap(victim, "simulate_victim_cache", "ext.victim", request=True,
                describe=lambda a, k, r: {"hits": r.victim_hits})
    tracer.wrap(stream_buffer, "simulate_stream_buffer", "ext.stream_buffer",
                request=True, describe=lambda a, k, r: {"hits": r.buffer_hits})
    tracer.wrap(
        writes, "count_write_traffic", "ext.writes", request=True,
        describe=lambda a, k, r: {
            "writebacks": r.l1_dirty_victims + r.l2_dirty_evictions,
        },
    )
    timing_misses = _misses_of(optimal, "_optimal_timing_cached")
    for module in (tpi, area_model):
        tracer.wrap(module, "optimal_timing", "timing", misses=timing_misses)
    tracer.wrap(evaluate, "optimal_cache_area", "area")
    tracer.wrap(evaluate, "compute_tpi", "core.tpi")
    tracer.wrap(explorer, "evaluate", "core.evaluate", request=True)


def instrument_serve(tracer):
    """Wrap the serve memo store; its spans join the client's request."""
    from repro.serve.memo import MemoStore

    def key_of(args, kwargs):
        return args[1]

    tracer.wrap(MemoStore, "load", "serve.memo.load", link=key_of)
    tracer.wrap(MemoStore, "store", "serve.memo.store", link=key_of)


def layer_totals(spans, wall_s, window_spans, stats_before=None, stats_after=None):
    """Additive per-layer totals of one pass (plain JSON).

    ``window_spans`` are the spans inside the timed window; the self
    times of those that name a program layer are what
    ``trace.accounted_pct`` compares with ``wall_s``.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    totals = {
        "passes": 1,
        "wall_s": wall_s,
        "accounted_s": sum(own[span["id"]] for span in window_spans
                           if span["name"] not in REQUEST_ROOTS),
    }

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for span in spans:
        name, attrs = span["name"], span["attrs"]
        add(name + ".calls", 1)
        add(name + ".self_s", own[span["id"]])
        add(name + ".dur_s", span["end"] - span["start"])
        for attr, value in attrs.items():
            add(f"{name}.{attr}", value)
        if name == "cache.l1" and attrs.get("computed", 1):
            add("cache.l1.refs_computed", attrs["refs"])
        if name == "cache.l1":
            # L2 replay events: the miss streams the L2 simulator replayed.
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == "cache.l2" and parent["attrs"]["has_l2"]:
                add("cache.l2.events", attrs["events"])
    if stats_before is not None and stats_after is not None:
        add("stats.hits", stats_after[0] - stats_before[0])
        add("stats.misses", stats_after[1] - stats_before[1])
    return totals


def merge_totals(items):
    merged = {}
    for item in items:
        for key, value in item.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(totals, overhead_pct, extra=None):
    """The named per-layer metrics, each per pass (mean over passes).

    ``extra`` supplies metrics measured outside the spans (the serve
    client's cold and warm latencies); absent ones read 0.
    """
    passes = max(1, totals.get("passes", 1))

    def get(key):
        return totals.get(key, 0)

    def per_pass(key):
        return get(key) / passes

    def computed(layer):
        # Without memo counters every call counts as computed.
        key = layer + ".computed"
        return get(key) if key in totals else get(layer + ".calls")

    l1_computed = computed("cache.l1")
    timing_searched = computed("timing")
    wall = get("wall_s")
    values = {
        "traces.generate.calls": per_pass("traces.generate.calls"),
        "traces.generate.busy_s": per_pass("traces.generate.self_s"),
        "traces.generate.minstr_per_s": _ratio(
            get("traces.generate.instructions") / 1e6, get("traces.generate.self_s")),
        "cache.l1.calls": per_pass("cache.l1.calls"),
        "cache.l1.computed": l1_computed / passes,
        "cache.l1.hit_ratio": _ratio(get("cache.l1.calls") - l1_computed, get("cache.l1.calls")),
        "cache.l1.busy_s": per_pass("cache.l1.self_s"),
        "cache.l1.mrefs_per_s": _ratio(
            get("cache.l1.refs_computed") / 1e6, get("cache.l1.self_s")),
        "cache.l2.calls": per_pass("cache.l2.calls"),
        "cache.l2.busy_s": per_pass("cache.l2.self_s"),
        "cache.l2.events": per_pass("cache.l2.events"),
        "cache.l2.mevents_per_s": _ratio(get("cache.l2.events") / 1e6, get("cache.l2.self_s")),
        "cache.l2.hits": per_pass("cache.l2.hits"),
        "cache.l2.misses": per_pass("cache.l2.misses"),
        "cache.l2.share_pct": 100.0 * _ratio(get("cache.l2.self_s"), wall),
        "ext.victim.busy_s": per_pass("ext.victim.self_s"),
        "ext.victim.hits": per_pass("ext.victim.hits"),
        "ext.stream_buffer.busy_s": per_pass("ext.stream_buffer.self_s"),
        "ext.stream_buffer.hits": per_pass("ext.stream_buffer.hits"),
        "ext.writes.busy_s": per_pass("ext.writes.self_s"),
        "ext.writes.writebacks": per_pass("ext.writes.writebacks"),
        "timing.calls": per_pass("timing.calls"),
        "timing.searched": timing_searched / passes,
        "timing.hit_ratio": _ratio(get("timing.calls") - timing_searched, get("timing.calls")),
        "timing.busy_s": per_pass("timing.self_s"),
        "timing.s_per_geometry": _ratio(get("timing.self_s"), timing_searched),
        "timing.share_pct": 100.0 * _ratio(get("timing.self_s"), wall),
        "area.calls": per_pass("area.calls"),
        "area.busy_s": per_pass("area.self_s"),
        "core.tpi.calls": per_pass("core.tpi.calls"),
        "core.tpi.busy_s": per_pass("core.tpi.self_s"),
        "core.evaluate.calls": per_pass("core.evaluate.calls"),
        "core.evaluate.self_s": per_pass("core.evaluate.self_s"),
        "core.evaluate.stats_hit_ratio": _ratio(
            get("stats.hits"), get("stats.hits") + get("stats.misses")),
        "runner.units": per_pass("runner.units"),
        "runner.overhead_s": per_pass("runner.self_s"),
        "serve.memo.load.calls": per_pass("serve.memo.load.calls"),
        "serve.memo.load_s": per_pass("serve.memo.load.self_s"),
        "serve.memo.store.calls": per_pass("serve.memo.store.calls"),
        "serve.memo.store_s": per_pass("serve.memo.store.self_s"),
        "serve.memo.hit_ratio": _ratio(get("serve.memo.hits"),
                                       get("serve.memo.hits") + get("serve.memo.misses")),
        "serve.compute.busy_s": per_pass("serve.compute.busy_s"),
        "serve.coalesced": per_pass("serve.coalesced"),
        "serve.shed": per_pass("serve.shed"),
        "trace.accounted_pct": 100.0 * _ratio(get("accounted_s"), wall),
        "trace.overhead_pct": overhead_pct,
    }
    values.update(extra or {})
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in metric_units("per_layer").items()}
