"""Whole-program rules with no per-file counterpart: REP007 and REP009.

Imported by the registry for registration side effects, exactly like
the per-file rules package; REP008, REP010 and REP011 share a module
with their per-file rule in :mod:`repro.analysis.rules`.  Each check
function consumes a linked
:class:`~repro.analysis.program.graph.Program` and yields ``(path,
line, col, message)`` tuples.
"""

from __future__ import annotations

from . import async_safety, exception_flow  # noqa: F401
