"""REP012: telemetry discipline — injected clocks, context-managed spans.

The observability layer (PR 9) makes two promises that are easy to
break silently:

* **Time is injectable.**  Every duration and timestamp the telemetry
  layer records flows through :class:`repro.obs.clock.Clock`, so tests
  drive time with a :class:`~repro.obs.clock.ManualClock` and span
  durations are deterministic under test.  A direct ``time.time()`` /
  ``time.monotonic()`` inside ``obs/`` bypasses the injection point —
  only ``obs/clock.py`` (the adapter that *defines* the sanctioned
  reads) may touch the ``time`` module.  The banned reads are REP002's
  clock set (:data:`repro.analysis.rules.determinism.WALL_CLOCKS`).  Execution-layer code outside
  ``obs/`` keeps its REP002 latitude: clocks are its business.

* **Spans close.**  A span only records on scope exit; calling
  ``span(...)`` without entering it (``tracer.span("x")`` as a bare
  statement or assignment) produces a context manager that is never
  entered — no duration, no record, and with a generator-based
  manager, a silent leak.  Package code must use ``with ... as s:``
  (or hand the manager to ``ExitStack.enter_context``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..finding import FileContext
from ..registry import Violation, checker
from .determinism import WALL_CLOCKS

#: The one module allowed to read ``time.*``: it is the Clock adapter.
_SANCTIONED_CLOCK_MODULE = "obs/clock.py"


def _call_tail(func: ast.AST) -> Optional[str]:
    """The last dotted component of a call target (``a.b.span`` -> ``span``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_context_managed(ctx: FileContext, call: ast.Call) -> bool:
    """True when ``call`` is a with-item or fed to ``enter_context``."""
    parent = ctx.parent_map.get(id(call))
    if isinstance(parent, ast.withitem) and parent.context_expr is call:
        return True
    if isinstance(parent, ast.Call) and _call_tail(parent.func) == "enter_context":
        return True
    return False


@checker(
    "REP012",
    "telemetry-discipline",
    "A direct time.* read inside the telemetry layer bypasses the "
    "injected Clock (tests can no longer drive time), and a span(...) "
    "call outside a with statement is never entered — it records "
    "nothing and leaks the open scope.",
)
def check_telemetry(ctx: FileContext) -> Iterator[Violation]:
    if ctx.kind != "package":
        return
    in_obs = (
        ctx.in_package_dirs("obs")
        and ctx.package_relpath != _SANCTIONED_CLOCK_MODULE
    )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        where = (node.lineno, node.col_offset + 1)
        if in_obs:
            target = ctx.canonical_call_name(node.func)
            if target in WALL_CLOCKS:
                yield (
                    *where,
                    f"{target}() reads time directly in the telemetry "
                    "layer; go through the injected Clock "
                    "(repro.obs.clock) so tests can drive time",
                )
        if _call_tail(node.func) == "span" and not _is_context_managed(ctx, node):
            yield (
                *where,
                "span(...) outside a with statement is never entered and "
                "records nothing; use 'with ...span(...) as s:' or "
                "ExitStack.enter_context",
            )
