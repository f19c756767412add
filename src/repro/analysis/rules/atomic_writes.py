"""REP001 / REP011: artefact writes must route through :mod:`repro.runner.atomic`.

The crash-safety guarantee (PR 1) is that every persisted artefact is
either the previous complete file or the new complete file — never a
torn half-write.  That only holds if *every* write goes through the
tmp-sibling + ``os.replace`` helpers.  :func:`raw_write` classifies the
escape hatches — a builtin ``open`` in a writing mode, ``gzip``/``io``
opens in a writing mode, and ``Path.write_text``/``Path.write_bytes`` —
for both rules:

* **REP001** flags them in the file that contains them.  Scope: library
  code, benchmarks, and examples.  Test files are exempt (tests
  legitimately scribble into ``tmp_path`` to *create* corrupt inputs),
  as is ``runner/atomic.py`` itself — the one module allowed to open
  files for writing.
* **REP011** adds the caller-side view: a function in a persisting
  package whose call chain ends in a raw write — through any number of
  helpers — bypasses the discipline, and the *caller* is where the
  artefact contract is owned.  Findings are reported at the frontier
  call site with the witness chain down to the sink.  Sanctioned sinks
  generate no taint: :mod:`repro.runner.atomic` and
  :mod:`repro.runner.faults` (deliberate fault injection — its direct
  writes exist to damage artefacts).  A write site that carries a REP001
  suppression is a documented deviation and does not taint its callers
  either — the suppression inventory already explains it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..finding import FileContext, dotted_name
from ..registry import ProgramViolation, Violation, checker, program_checker

if TYPE_CHECKING:
    from ..program.graph import FunctionNode, Program

_ALLOWED_FILE = "runner/atomic.py"

#: File openers; any of them is synchronous I/O, a writing mode a raw write.
OPENERS = ("open", "gzip.open", "io.open", "bz2.open", "lzma.open")

#: ``Path`` writers and the atomic helper that replaces each.
_PATH_WRITERS = {"write_text": "write_text_atomic", "write_bytes": "write_bytes_atomic"}

_SANCTIONED_MODULES = frozenset({"repro.runner.atomic", "repro.runner.faults"})

#: REP011's "persisting packages": the package minus the runner (owns
#: the helpers) and the analyzer (writes no artefacts).
_EXEMPT_PREFIXES = ("repro.runner", "repro.analysis")


def _literal_mode(call: ast.Call) -> Optional[str]:
    """The call's ``mode`` argument when it is a string literal."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"  # builtin default
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic — cannot prove a write statically


def raw_write(call: ast.Call, name: Optional[str]) -> Optional[str]:
    """How ``call`` writes a file directly (``"open(..., 'w')"``), else None.

    ``name`` is the call target as written (:func:`dotted_name`).
    """
    if name in OPENERS:
        mode = _literal_mode(call)
        if mode is not None and any(ch in mode for ch in "wax+"):
            return f"{name}(..., {mode!r})"
    elif isinstance(call.func, ast.Attribute) and call.func.attr in _PATH_WRITERS:
        return f".{call.func.attr}(...)"
    return None


@checker(
    "REP001",
    "atomic-writes",
    "A direct file write can be torn by a crash mid-write; the atomic "
    "helpers guarantee the artefact is always either complete or absent, "
    "which is what --resume's artefact validation relies on.",
)
def check_atomic_writes(ctx: FileContext) -> Iterator[Violation]:
    if ctx.kind == "test":
        return
    if ctx.package_relpath == _ALLOWED_FILE:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        write = raw_write(node, dotted_name(node.func))
        if write is None:
            continue
        helper = _PATH_WRITERS.get(getattr(node.func, "attr", ""))
        if helper is None:
            fix = (
                "route artefact writes through repro.runner.atomic "
                "(atomic_open / write_text_atomic / write_bytes_atomic)"
            )
        else:
            fix = (
                f"use repro.runner.atomic.{helper} "
                "so a crash cannot leave a torn artefact"
            )
        yield (node.lineno, node.col_offset + 1, f"{write} writes directly; {fix}")


def _persisting(module: str) -> bool:
    if not (module == "repro" or module.startswith("repro.")):
        return False
    return not any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _EXEMPT_PREFIXES
    )


def _transmits(node: FunctionNode) -> bool:
    return node.module not in _SANCTIONED_MODULES


@program_checker(
    "REP011",
    "atomic-flow",
    "A persisting package whose call chain bottoms out in a raw write "
    "bypasses the atomic tmp/rename/fsync discipline even though the "
    "write lives in another file; a crash mid-chain can still tear the "
    "artefact --resume revalidates.",
)
def check_atomic_flow(program: Program) -> Iterator[ProgramViolation]:
    from ..program.graph import propagate_to_callers

    seeds: Dict[str, str] = {}
    for node in program.functions.values():
        if node.module in _SANCTIONED_MODULES:
            continue
        raw_writes = [
            s for s in node.sinks if s.kind == "write" and not s.suppressed
        ]
        if raw_writes:
            first = min(raw_writes, key=lambda s: (s.line, s.col))
            seeds[node.fid] = f"{first.detail} at {node.path}:{first.line}"
    tainted = propagate_to_callers(
        program, seeds, edge_kinds=("call",), through=_transmits
    )

    findings: List[Tuple[str, int, int, str]] = []
    for node in sorted(program.functions.values(), key=lambda n: n.fid):
        if not _persisting(node.module):
            continue
        for call in node.calls:
            if call.kind != "call" or call.target is None:
                continue
            if call.target not in tainted:
                continue
            chain = " -> ".join(tainted[call.target])
            findings.append(
                (
                    node.path,
                    call.line,
                    call.col,
                    f"{call.raw}() transitively performs a raw file write "
                    f"({chain}) without going through repro.runner.atomic; "
                    "route the write through atomic_open / "
                    "write_text_atomic / write_bytes_atomic",
                )
            )
    for finding in sorted(set(findings)):
        yield finding
