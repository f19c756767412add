"""In-memory span recorder that instruments the program from outside.

The traced run never edits the program: :meth:`Tracer.wrap` replaces a
module (or class) attribute with a timing wrapper, and the program picks
the wrapper up because it resolves those names at call time.  Every
wrapper is removed again by :meth:`Tracer.restore`.

A span has a name, an id, a parent id, a trace id shared by every span
of one request, a start and an end (seconds since the tracer started)
and free-form integer attributes.  Spans stay in memory until the run
ends; :func:`self_times` then subtracts from each span the part of its
interval its children cover.
"""

import functools
import itertools
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times"]


class Tracer:
    """Records nested spans from any number of threads."""

    def __init__(self):
        self.spans = []
        self._origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Link key -> the open span that owns it, so work another thread
        # does on behalf of a request (the server's memo I/O) joins the
        # request's trace.
        self._links = {}
        self._patched = []

    def now(self):
        return time.perf_counter() - self._origin

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, *, request=False, link=None):
        """Record one span around the ``with`` body.

        ``request`` starts a new trace id (one request of the workload);
        otherwise the span joins its parent's trace.  A request span owns
        its ``link`` key while it is open: a non-request span opened with
        the same key in another thread becomes its child.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and link is not None and not request:
            with self._lock:
                parent = self._links.get(link)
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "trace": None,
            "start": self.now(),
            "end": None,
            "attrs": {},
        }
        span["trace"] = span["id"] if request or parent is None else parent["trace"]
        stack.append(span)
        if request and link is not None:
            with self._lock:
                self._links[link] = span
        try:
            yield span
        finally:
            span["end"] = self.now()
            stack.pop()
            if request and link is not None:
                with self._lock:
                    if self._links.get(link) is span:
                        del self._links[link]
            self.spans.append(span)

    def wrap(self, owner, attribute, name, *, request=False, link=None,
             misses=None, describe=None):
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``misses`` returns the wrapped layer's memo miss counter (or
        None); a call that moves it is marked ``computed``.  ``describe``
        maps ``(args, kwargs, result)`` to span attributes.  ``link``
        maps ``(args, kwargs)`` to the key that attaches the span to the
        request owning that key.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            key = link(args, kwargs) if link is not None else None
            with self.span(name, request=request, link=key) as span:
                before = misses() if misses is not None else None
                result = original(*args, **kwargs)
                if before is not None:
                    span["attrs"]["computed"] = int(misses() > before)
                if describe is not None:
                    span["attrs"].update(describe(args, kwargs, result))
            return result

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result
