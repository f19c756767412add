"""REP002 / REP010: model code must be deterministic; execution code seeded.

The parallel-execution guarantee (PR 2) is that a sweep's artefacts are
byte-identical whatever the worker count — which is only true while the
cache, timing, area, power, and extension models compute pure functions
of their inputs.  Wall-clock reads and unseeded random sources are the
two ways determinism silently leaks out; :func:`nondeterminism`
classifies both for REP002, REP010 and (clocks only) REP012.  Seeded
generators are fine: the trace synthesiser derives every ``numpy``
generator from a stable name hash.

* **REP002** bans both in the model packages, file by file.  The
  *execution* packages (``runner/``, ``serve/``) legitimately read clocks
  — elapsed-time measurement, deadlines, breaker cooldowns are their job
  — but they must never draw from the global RNG: retry backoff jitter,
  the classic temptation, has to derive from the seeded LFSR and the
  unit id (:func:`repro.runner.engine.jitter_unit`) so that a replayed
  run backs off identically.  For those directories only the randomness
  bans apply.
* **REP010** catches the leak REP002 cannot see: a model function
  calling a helper in ``traces/``, ``study/`` or ``units.py`` that reads
  the clock.  It propagates a "nondeterministic" fact from direct
  clock/RNG sinks up the call graph and reports at the call site inside
  a model module (the frontier, where the fix or a documented
  suppression belongs).  Only interprocedural findings are reported; a
  direct sink stays REP002's.  Sinks that carry a REP002 suppression
  generate no taint.  The execution packages neither seed nor transmit
  taint: a model function calling into the runner is not a determinism
  leak (the runner never feeds timing back into model results).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..finding import FileContext
from ..registry import ProgramViolation, Violation, checker, program_checker

if TYPE_CHECKING:
    from ..program.graph import FunctionNode, Program

#: Packages whose byte-equality the differential pool tests depend on:
#: both wall clocks and unseeded randomness are banned.
_MODEL_DIRS = ("cache", "timing", "area", "power", "ext")

#: Execution-layer packages: clocks are their business (timeouts,
#: latency metrics, breaker cooldowns) but global randomness is still
#: banned — backoff jitter must come from the seeded LFSR/unit id.
_EXEC_DIRS = ("runner", "serve")

#: REP010's model modules: REP002's model dirs plus ``core`` (the
#: sweep/experiment layer whose records land in artefacts).
_MODEL_PREFIXES = tuple(f"repro.{name}" for name in _MODEL_DIRS + ("core",))
_EXEC_PREFIXES = tuple(f"repro.{name}" for name in _EXEC_DIRS)

WALL_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random attributes that are *not* the legacy global RNG.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
     "Philox", "MT19937", "SFC64"}
)


def nondeterminism(call: ast.Call, name: Optional[str]) -> Optional[str]:
    """``"clock"`` or ``"rng"`` when ``call`` reads a wall clock or an
    unseeded RNG, else None.

    ``name`` is the call target with its import alias resolved
    (``np.random.rand`` -> ``numpy.random.rand``).
    """
    if name is None:
        return None
    if name in WALL_CLOCKS:
        return "clock"
    if name.startswith("random."):
        return "rng"
    if name.startswith("numpy.random."):
        tail = name[len("numpy.random."):]
        if tail == "default_rng":
            return None if call.args or call.keywords else "rng"
        if tail not in _SEEDABLE_CONSTRUCTORS:
            return "rng"
    return None


@checker(
    "REP002",
    "determinism",
    "A wall-clock read or unseeded RNG in a model module breaks the "
    "byte-identical-under-parallelism guarantee the pool tests enforce; "
    "global-RNG draws in execution code (e.g. backoff jitter) break "
    "run replayability.",
)
def check_determinism(ctx: FileContext) -> Iterator[Violation]:
    in_model = ctx.in_package_dirs(*_MODEL_DIRS)
    in_exec = ctx.in_package_dirs(*_EXEC_DIRS)
    if not (in_model or in_exec):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.canonical_call_name(node.func)
        kind = nondeterminism(node, target)
        if kind is None or target is None:
            continue
        where = (node.lineno, node.col_offset + 1)
        if kind == "clock":
            if in_model:
                yield (*where, f"{target}() reads the wall clock in model code; "
                       "model outputs must be pure functions of their inputs")
        elif target.startswith("random."):
            hint = (
                "derive deterministic jitter from the seeded LFSR and the "
                "unit id (repro.runner.engine.jitter_unit) instead"
                if in_exec
                else "derive a seeded numpy Generator from the model's "
                "inputs instead"
            )
            yield (*where, f"{target}() uses the global stdlib RNG; {hint}")
        elif target == "numpy.random.default_rng":
            yield (*where, "numpy.random.default_rng() without a seed "
                   "is nondeterministic; pass an explicit seed")
        else:
            tail = target[len("numpy.random."):]
            yield (*where, f"numpy.random.{tail}() uses the legacy global "
                   "RNG; use a seeded numpy.random.default_rng(...)")


def _matches(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _in_scope(node: FunctionNode) -> bool:
    in_package = node.module == "repro" or node.module.startswith("repro.")
    return in_package and not _matches(node.module, _EXEC_PREFIXES)


@program_checker(
    "REP010",
    "determinism-flow",
    "A wall-clock or RNG read hidden behind a helper makes model output "
    "nondeterministic while every file lints clean under REP002; the "
    "byte-identical-under-parallelism guarantee breaks exactly the same "
    "way as a direct read.",
)
def check_determinism_flow(program: Program) -> Iterator[ProgramViolation]:
    from ..program.graph import propagate_to_callers

    seeds: Dict[str, str] = {}
    for node in program.functions.values():
        if not _in_scope(node):
            continue
        impure = [
            s for s in node.sinks
            if s.kind in ("clock", "rng") and not s.suppressed
        ]
        if impure:
            first = min(impure, key=lambda s: (s.line, s.col))
            seeds[node.fid] = f"{first.detail} at {node.path}:{first.line}"
    tainted = propagate_to_callers(
        program, seeds, edge_kinds=("call",), through=_in_scope
    )

    findings: List[Tuple[str, int, int, str]] = []
    for node in sorted(program.functions.values(), key=lambda n: n.fid):
        if not _matches(node.module, _MODEL_PREFIXES):
            continue
        for call in node.calls:
            if call.kind != "call" or call.target is None:
                continue
            if call.target not in tainted or call.target == node.fid:
                continue
            chain = " -> ".join(tainted[call.target])
            findings.append(
                (
                    node.path,
                    call.line,
                    call.col,
                    f"{call.raw}() called from model code transitively "
                    f"reads a clock/RNG ({chain}); model outputs must be "
                    "pure functions of their inputs",
                )
            )
    for finding in sorted(set(findings)):
        yield finding
