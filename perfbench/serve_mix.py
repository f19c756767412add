"""The serve workload: a closed loop of two clients against repro serve.

One session starts a ``BackgroundServer`` with two pool workers on a
fresh store, and two client threads each send their next request only
after the previous answer arrived (closed loop) until the seeded stream
of requests is used up.  Every session of a run sends the same stream,
so sessions are repeats of one measurement.  Every answer's latency,
status, ``X-Repro-Source`` and body are kept for the checks, which run
after the timed windows.
"""

import http.client
import itertools
import json
import multiprocessing
import shutil
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import layers
from spans import Tracer

__all__ = ["Session", "check_bodies"]

N_CLIENTS = 2
N_WORKERS = 2


def _peak_rss_kb(pid):
    """VmHWM of a live process, in KB (0 if it already exited)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _join_children(timeout_s=30.0):
    """Wait for every child process (the pool workers) to end."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


class Session:
    """One server on a fresh store, ready for one timed closed loop."""

    def __init__(self, store, points, stream, keys, traced=False):
        from repro.serve import BackgroundServer, ServePolicy

        started = time.perf_counter()
        self.points, self.stream, self.keys = points, stream, keys
        self.store = Path(store)
        shutil.rmtree(self.store, ignore_errors=True)
        self.tracer = None
        if traced:
            self.tracer = Tracer()
            layers.instrument_serve(self.tracer)
        policy = ServePolicy(deadline_s=120.0)
        self.server = BackgroundServer(self.store, workers=N_WORKERS, policy=policy)
        self.server.__enter__()
        self.start_s = time.perf_counter() - started

    def _client(self, cursor, samples):
        span = self.tracer.span if self.tracer else None
        while True:
            position = next(cursor)
            if position >= len(self.stream):
                return
            index = self.stream[position]
            started = time.perf_counter()
            with span("serve.request", request=True, link=self.keys[index]) if span else nullcontext():
                try:
                    status, headers, body = self.server.request(
                        "POST", "/v1/evaluate", self.points[index], timeout=150.0)
                except (OSError, http.client.HTTPException):
                    status, headers, body = 0, {}, b""
            samples.append({
                "point": index,
                "status": status,
                "source": headers.get("x-repro-source", ""),
                "latency_s": time.perf_counter() - started,
                "body": body,
            })

    def run(self):
        """The timed closed loop over the whole stream; returns its wall time."""
        cursor = itertools.count()
        samples = []
        started = time.perf_counter()
        clients = [
            threading.Thread(target=self._client, args=(cursor, samples))
            for _ in range(N_CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        self.wall_s = time.perf_counter() - started
        self.samples = samples
        return self.wall_s

    def close(self):
        """Read the counters, stop the server and wait for its workers."""
        import resource

        workers_kb = sum(_peak_rss_kb(child.pid) for child in multiprocessing.active_children())
        self.peak_rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kb
        )
        status, _, body = self.server.request("GET", "/v1/stats")
        self.stats = json.loads(body) if status == 200 else {}
        self.server.__exit__(None, None, None)
        _join_children()
        if self.tracer is not None:
            self.tracer.restore()
        self.compute_s = 0.0
        journal = self.store / "serve.journal.jsonl"
        if journal.exists():
            for line in journal.read_text().splitlines():
                entry = json.loads(line)
                if entry.get("status") == "ok":
                    self.compute_s += entry.get("elapsed_s", 0.0)
        shutil.rmtree(self.store, ignore_errors=True)

    def layer_totals(self):
        tracer = self.tracer
        totals = layers.layer_totals(tracer.spans, self.wall_s, tracer.spans)
        memo = self.stats.get("memo", {})
        totals["serve.memo.hits"] = memo.get("hits", 0)
        totals["serve.memo.misses"] = memo.get("misses", 0)
        totals["serve.compute.busy_s"] = self.compute_s
        totals["serve.coalesced"] = self.stats.get("requests", {}).get("coalesced", 0)
        totals["serve.shed"] = self.stats.get("admission", {}).get("shed", 0)
        return totals


def check_bodies(points, samples):
    """Count 200 answers whose body differs from an in-process evaluate.

    The expected body is ``canonical_json(point_record(evaluate(...)))``
    of the request, computed here, outside every timed window.
    """
    from repro.core.evaluate import evaluate
    from repro.serve.compute import canonical_json, normalize_point, point_record

    expected = {}
    mismatches = 0
    for sample in samples:
        if sample["status"] != 200:
            continue
        index = sample["point"]
        if index not in expected:
            config, workload, scale = normalize_point(points[index])
            record = point_record(evaluate(config, workload, scale=scale))
            expected[index] = canonical_json(record).encode("utf-8")
        mismatches += sample["body"] != expected[index]
    return mismatches
