"""REP004 / REP008: pool-bound unit bodies must be picklable.

:class:`~repro.runner.pool.PoolRunner` ships a unit's ``run`` and
``to_record`` callables to worker processes, so they must pickle —
module-level functions or instances of module-level classes.  A lambda
or a function defined inside another function works fine under the
serial engine and then explodes the moment ``--workers`` is passed,
which is exactly the kind of latent landmine a static check removes.
(``check_skip`` and ``from_record`` stay parent-side and may close over
anything, per the pool module's pickling contract.)

* **REP004** flags a lambda or nested def written *directly* into a
  ``RunUnit(run=..., to_record=...)`` slot (:func:`unpicklable_in_place`).
* **REP008** catches the wrapper trick: ``run=make_body(x)`` where
  ``make_body`` returns a closure, or ``run=body`` where ``body`` is a
  module-level lambda (pickle serializes functions by qualified name — a
  lambda's ``<lambda>`` qualname never round-trips).  It walks
  return-flow taint through the call graph: a function that returns a
  lambda/nested def — or the value of a call to such a function — "may
  return an unpicklable", and handing its return value to a shipped slot
  is flagged with the witness chain.  Names are resolved through module
  symbols and re-exports; unresolved callees are skipped when reporting
  (conservative, no false positives) but remain explicit unknowns in the
  graph.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Collection, Dict, Iterator, List, Optional, Set, Tuple

from ..finding import FileContext, dotted_name
from ..registry import ProgramViolation, Violation, checker, program_checker

if TYPE_CHECKING:
    from ..program.graph import Program

#: RunUnit(unit_id, payload, run, to_record, ...) positional slots that
#: are shipped to workers.
_SHIPPED_ARGS = {2: "run", 3: "to_record"}
_SHIPPED_KEYWORDS = frozenset(_SHIPPED_ARGS.values())

_SHIPPED_HINT = (
    "pool workers rebuild unit bodies by pickling; use a module-level "
    "function or a dataclass instance (see repro.runner.pool)"
)


def is_run_unit(name: Optional[str]) -> bool:
    """True when a call target (as written) constructs a ``RunUnit``."""
    return name is not None and name.split(".")[-1] == "RunUnit"


def shipped_arguments(call: ast.Call) -> Iterator[Tuple[str, ast.expr]]:
    """``(slot, value)`` for each argument of a ``RunUnit`` call that a
    pool ships to its workers."""
    for index, arg in enumerate(call.args):
        if index in _SHIPPED_ARGS:
            yield _SHIPPED_ARGS[index], arg
    for keyword in call.keywords:
        if keyword.arg in _SHIPPED_KEYWORDS:
            yield keyword.arg, keyword.value


def unpicklable_in_place(value: ast.expr, nested: Collection[str]) -> Optional[str]:
    """What makes a shipped value unpicklable as written, else None:
    a lambda, or the name of a function in ``nested`` (defined inside
    another function)."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Name) and value.id in nested:
        return f"nested function {value.id!r}"
    return None


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function's body."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn and inside_function:
                nested.add(child.name)  # type: ignore[union-attr]
            walk(child, inside_function or is_fn)

    walk(tree, False)
    return nested


@checker(
    "REP004",
    "pool-picklability",
    "A lambda or nested function as a unit body pickles under the serial "
    "engine but crashes every --workers run; bodies must be module-level "
    "callables or instances of module-level classes.",
)
def check_picklable(ctx: FileContext) -> Iterator[Violation]:
    if ctx.kind != "package":
        return
    nested = _nested_function_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not is_run_unit(dotted_name(node.func)):
            continue
        for slot, value in shipped_arguments(node):
            problem = unpicklable_in_place(value, nested)
            if problem is not None:
                yield (
                    value.lineno,
                    value.col_offset + 1,
                    f"RunUnit {slot}= is {problem}, which cannot be pickled "
                    "to pool workers; use a module-level function or a "
                    "dataclass instance (see repro.runner.pool)",
                )


def _may_return_unpicklable(program: Program) -> Dict[str, Tuple[str, ...]]:
    """Fixpoint over return-flow edges: fid -> witness chain."""
    tainted: Dict[str, Tuple[str, ...]] = {}
    for fid in sorted(program.functions):
        node = program.functions[fid]
        for flow in node.returns:
            if flow.kind in ("lambda", "nested"):
                what = (
                    "a lambda"
                    if flow.kind == "lambda"
                    else f"nested function {flow.target!r}"
                )
                tainted[fid] = (f"{node.display} returns {what}",)
                break
    changed = True
    while changed:
        changed = False
        for fid in sorted(program.functions):
            if fid in tainted:
                continue
            node = program.functions[fid]
            for flow in node.returns:
                if (
                    flow.kind == "call"
                    and flow.target is not None
                    and flow.target in tainted
                ):
                    tainted[fid] = (
                        f"{node.display} returns "
                        f"{program.functions[flow.target].display}(...)",
                    ) + tainted[flow.target]
                    changed = True
                    break
    return tainted


@program_checker(
    "REP008",
    "pickle-flow",
    "A RunUnit body built by a wrapper that returns a lambda/closure, or "
    "bound to a module-level lambda, pickles under the serial engine and "
    "crashes every --workers run — the same landmine REP004 catches for "
    "the direct spelling.",
)
def check_pickle_flow(program: Program) -> Iterator[ProgramViolation]:
    tainted = _may_return_unpicklable(program)
    findings: List[Tuple[str, int, int, str]] = []
    for module in sorted(program.modules):
        summary = program.modules[module]
        for site in summary.unit_sites:
            if site.kind == "direct" or site.name is None:
                continue
            if site.kind == "local-lambda":
                findings.append(
                    (
                        summary.path,
                        site.line,
                        site.col,
                        f"RunUnit {site.slot}= is {site.name!r}, a local "
                        f"lambda; {_SHIPPED_HINT}",
                    )
                )
                continue
            resolution = program.resolve_in_module(module, site.name)
            kind, target = resolution
            if site.kind in ("name", "partial") and kind == "module-lambda":
                how = (
                    "functools.partial of" if site.kind == "partial" else
                    "bound to"
                )
                findings.append(
                    (
                        summary.path,
                        site.line,
                        site.col,
                        f"RunUnit {site.slot}= is {how} module-level lambda "
                        f"{site.name!r}, whose <lambda> qualname cannot be "
                        f"pickled; {_SHIPPED_HINT}",
                    )
                )
            elif (
                site.kind == "call"
                and kind == "function"
                and target in tainted
            ):
                chain = "; ".join(tainted[target])
                findings.append(
                    (
                        summary.path,
                        site.line,
                        site.col,
                        f"RunUnit {site.slot}= takes the return value of "
                        f"{site.name}(), which may be unpicklable "
                        f"({chain}); {_SHIPPED_HINT}",
                    )
                )
    for finding in sorted(set(findings)):
        yield finding
