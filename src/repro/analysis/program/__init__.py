"""Whole-program analysis: symbol table, call graph, taint propagation.

The per-file rules (REP001–REP006) see one AST at a time, so a
wall-clock read two calls deep into a helper, a lambda smuggled into a
pool unit via a wrapper, or a blocking ``time.sleep`` reachable from an
``async def`` are all invisible to them.  This subpackage adds the
missing layer in two passes that mirror the engine's split between
parallel per-file work and serial linking:

1. :mod:`~repro.analysis.program.summary` — a per-file extraction pass
   producing a :class:`~repro.analysis.program.summary.ModuleSummary`:
   pure derived data (functions, classes, call sites, sinks, raises,
   returns, ``RunUnit`` sites, suppressions) with no AST nodes, so
   summaries pickle to pool workers and serialize into the lint cache.
2. :mod:`~repro.analysis.program.graph` — a linking pass joining the
   summaries into a :class:`~repro.analysis.program.graph.Program`:
   project symbol table (modules, classes, functions, re-exports), a
   conservative call graph (unresolvable callees are recorded as
   *unknown*, never silently treated as safe), and reachability/taint
   fixpoints with shortest witness chains for diagnostics.

The five interprocedural rules (REP007–REP011) consume only the linked
:class:`Program`, which keeps per-rule evaluation trivially
parallelizable.  REP007 and REP009 live in
:mod:`~repro.analysis.program.rules`; the taint rules that extend a
per-file rule share its module in :mod:`repro.analysis.rules`.
"""

from __future__ import annotations

from .graph import Program, link_program
from .summary import SUMMARY_SCHEMA, ModuleSummary, summarize_source

__all__ = [
    "Program",
    "link_program",
    "ModuleSummary",
    "summarize_source",
    "SUMMARY_SCHEMA",
]
