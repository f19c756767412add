"""Pass 1 of whole-program analysis: per-file module summaries.

A :class:`ModuleSummary` is everything the linker needs to know about
one source file, expressed as plain frozen dataclasses over strings and
ints — no AST nodes — so summaries pickle cleanly to pool workers and
round-trip through the JSON lint cache (:meth:`ModuleSummary.to_record`
/ :meth:`ModuleSummary.from_record`).  Extraction is the expensive,
per-file half of the program phase; it is cached by content hash so a
warm run only re-parses edited files.

Name handling: call sites keep the *raw* dotted name as written
(``self.memo.load``, ``helper``); the summary also carries the module's
import alias map with relative imports resolved to absolute dotted
paths, and the linker does all cross-module resolution.  Sink
classification (blocking / clock / RNG / write) happens here because it
only needs the alias map.  Clock/RNG, write and ``RunUnit`` sites are
classified by the same functions the per-file rules call
(:mod:`repro.analysis.rules` holds one module per invariant), so a site
and its suppression mean the same thing to both phases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..finding import dotted_name
from ..rules.atomic_writes import OPENERS, raw_write
from ..rules.determinism import nondeterminism
from ..rules.picklable import is_run_unit, shipped_arguments, unpicklable_in_place
from ..suppress import Suppression, scan_suppressions

__all__ = [
    "SUMMARY_SCHEMA",
    "CallSite",
    "SinkSite",
    "RaiseSite",
    "ReturnSite",
    "UnitSite",
    "SuppressionSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "module_name_for",
    "summarize_source",
]

#: Bumped whenever extraction output changes; cached summaries with a
#: different schema are discarded, never reinterpreted.
SUMMARY_SCHEMA = 1

_PACKAGE_MARKER = "src/repro/"

#: Canonical dotted names that block the event loop when awaited from
#: nothing (REP007 sinks).  ``subprocess.*`` is matched by prefix.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
    }
)
_BLOCKING_PREFIXES = ("subprocess.",)

#: Attribute calls that block regardless of receiver type: pool/future
#: joins and pathlib's synchronous file I/O.
_BLOCKING_ATTRS = frozenset(
    {"result", "read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Call targets that hand their function-valued arguments to a thread
#: pool: those references are *bridged*, not blocking-in-async.
_BRIDGE_ATTRS = frozenset({"run_in_executor"})
_BRIDGE_CALLS = frozenset({"asyncio.to_thread"})

_PARTIAL_NAMES = frozenset({"functools.partial", "partial"})


@dataclass(frozen=True)
class CallSite:
    """One call edge candidate inside a function body.

    ``kind`` is ``"call"`` for a real invocation, ``"ref"`` for a
    function passed as an argument (a deferred call — traversed by
    reachability, not by blocking-taint), ``"bridge"`` for a callable
    handed to ``run_in_executor``/``asyncio.to_thread``.  ``name`` is
    the raw dotted target, or None when the callee is dynamic
    (``getattr(...)(...)``, a call on a call result) — the linker keeps
    those as explicit *unknown callees* so nothing is falsely "safe".
    """

    line: int
    col: int
    kind: str
    name: Optional[str]


@dataclass(frozen=True)
class SinkSite:
    """A direct contract-relevant effect inside a function body.

    ``kind``: ``blocking`` (sync I/O / sleeps / subprocess / future
    joins), ``clock`` (wall-clock read), ``rng`` (global or legacy RNG
    draw), ``write`` (non-atomic file write).  ``suppressed`` is True
    when the corresponding *per-file* rule (REP001 for writes, REP002
    for clock/RNG) is suppressed at this site — documented deviations
    do not generate interprocedural taint.
    """

    line: int
    col: int
    kind: str
    detail: str
    suppressed: bool = False


@dataclass(frozen=True)
class RaiseSite:
    """A ``raise`` statement with a resolvable exception name."""

    line: int
    col: int
    name: str  # raw dotted name as written


@dataclass(frozen=True)
class ReturnSite:
    """What a ``return`` statement hands back, for pickle-flow taint.

    ``kind``: ``lambda`` (a lambda or a name bound to a local lambda),
    ``nested`` (a locally-defined function), ``call`` (the value of
    another call — taint flows from the callee), ``partial`` (a
    functools.partial whose target is ``name``).
    """

    line: int
    kind: str
    name: Optional[str] = None


@dataclass(frozen=True)
class UnitSite:
    """A ``RunUnit(...)`` construction with one shipped slot's shape.

    ``kind``: ``name`` (a bare/dotted name — resolved by the linker;
    flagged when it lands on a module-level lambda), ``call`` (the slot
    receives another call's return value — flagged when the callee may
    return an unpicklable), ``partial`` (``functools.partial(name,
    ...)``), ``direct`` (lambda/nested-def written in place — REP004's
    per-file business, skipped here), ``other`` (anything else).
    """

    line: int
    col: int
    slot: str
    kind: str
    name: Optional[str] = None


@dataclass(frozen=True)
class SuppressionSite:
    """A suppression comment, carried for program-phase filtering."""

    line: int
    col: int
    covered: Tuple[int, ...]
    rule_ids: Tuple[str, ...]
    reason: str

    def covers(self, rule_id: str, at_line: int) -> bool:
        return bool(self.reason) and rule_id in self.rule_ids and at_line in self.covered


@dataclass(frozen=True)
class FunctionSummary:
    """One function/method/nested def, with its body events."""

    name: str
    qualname: str
    line: int
    col: int
    is_async: bool
    owner_class: str = ""  # qualname of the lexically enclosing class, if any
    decorators: Tuple[str, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    sinks: Tuple[SinkSite, ...] = ()
    raises: Tuple[RaiseSite, ...] = ()
    returns: Tuple[ReturnSite, ...] = ()
    local_funcs: Tuple[str, ...] = ()  # bare names of directly nested defs


@dataclass(frozen=True)
class ClassSummary:
    """One class: bases, method names, and inferred attribute types."""

    name: str
    qualname: str
    line: int
    bases: Tuple[str, ...] = ()  # raw dotted names
    methods: Tuple[str, ...] = ()  # bare method names
    #: ``self.X = SomeClass(...)`` / ``SomeClass.factory(...)`` sites:
    #: (attribute name, raw dotted constructor target).
    attr_types: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the linker needs to know about one source file."""

    module: str
    path: str
    is_package: bool = False
    aliases: Tuple[Tuple[str, str], ...] = ()
    functions: Tuple[FunctionSummary, ...] = ()
    classes: Tuple[ClassSummary, ...] = ()
    unit_sites: Tuple[UnitSite, ...] = ()
    module_lambdas: Tuple[str, ...] = ()
    suppressions: Tuple[SuppressionSite, ...] = ()

    def to_record(self) -> Dict[str, Any]:
        """JSON-safe representation for the lint cache."""
        return {
            "schema": SUMMARY_SCHEMA,
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "aliases": [list(pair) for pair in self.aliases],
            "functions": [_fn_record(fn) for fn in self.functions],
            "classes": [_cls_record(cls) for cls in self.classes],
            "unit_sites": [
                [u.line, u.col, u.slot, u.kind, u.name] for u in self.unit_sites
            ],
            "module_lambdas": list(self.module_lambdas),
            "suppressions": [
                [s.line, s.col, list(s.covered), list(s.rule_ids), s.reason]
                for s in self.suppressions
            ],
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            module=record["module"],
            path=record["path"],
            is_package=record["is_package"],
            aliases=tuple((a, b) for a, b in record["aliases"]),
            functions=tuple(_fn_from_record(r) for r in record["functions"]),
            classes=tuple(_cls_from_record(r) for r in record["classes"]),
            unit_sites=tuple(
                UnitSite(line=r[0], col=r[1], slot=r[2], kind=r[3], name=r[4])
                for r in record["unit_sites"]
            ),
            module_lambdas=tuple(record["module_lambdas"]),
            suppressions=tuple(
                SuppressionSite(
                    line=r[0],
                    col=r[1],
                    covered=tuple(r[2]),
                    rule_ids=tuple(r[3]),
                    reason=r[4],
                )
                for r in record["suppressions"]
            ),
        )


def _fn_record(fn: FunctionSummary) -> Dict[str, Any]:
    return {
        "name": fn.name,
        "qualname": fn.qualname,
        "line": fn.line,
        "col": fn.col,
        "is_async": fn.is_async,
        "owner_class": fn.owner_class,
        "decorators": list(fn.decorators),
        "calls": [[c.line, c.col, c.kind, c.name] for c in fn.calls],
        "sinks": [[s.line, s.col, s.kind, s.detail, s.suppressed] for s in fn.sinks],
        "raises": [[r.line, r.col, r.name] for r in fn.raises],
        "returns": [[r.line, r.kind, r.name] for r in fn.returns],
        "local_funcs": list(fn.local_funcs),
    }


def _fn_from_record(record: Dict[str, Any]) -> FunctionSummary:
    return FunctionSummary(
        name=record["name"],
        qualname=record["qualname"],
        line=record["line"],
        col=record["col"],
        is_async=record["is_async"],
        owner_class=record["owner_class"],
        decorators=tuple(record["decorators"]),
        calls=tuple(
            CallSite(line=c[0], col=c[1], kind=c[2], name=c[3])
            for c in record["calls"]
        ),
        sinks=tuple(
            SinkSite(line=s[0], col=s[1], kind=s[2], detail=s[3], suppressed=s[4])
            for s in record["sinks"]
        ),
        raises=tuple(
            RaiseSite(line=r[0], col=r[1], name=r[2]) for r in record["raises"]
        ),
        returns=tuple(
            ReturnSite(line=r[0], kind=r[1], name=r[2]) for r in record["returns"]
        ),
        local_funcs=tuple(record["local_funcs"]),
    )


def _cls_record(cls: ClassSummary) -> Dict[str, Any]:
    return {
        "name": cls.name,
        "qualname": cls.qualname,
        "line": cls.line,
        "bases": list(cls.bases),
        "methods": list(cls.methods),
        "attr_types": [list(pair) for pair in cls.attr_types],
    }


def _cls_from_record(record: Dict[str, Any]) -> ClassSummary:
    return ClassSummary(
        name=record["name"],
        qualname=record["qualname"],
        line=record["line"],
        bases=tuple(record["bases"]),
        methods=tuple(record["methods"]),
        attr_types=tuple((a, b) for a, b in record["attr_types"]),
    )


def module_name_for(path: Union[str, Path]) -> Tuple[str, bool]:
    """Dotted module name for a file, and whether it is a package.

    Files under a ``src/repro/`` marker (the real tree and the fixture
    trees that mimic it) get their true dotted name, so cross-module
    imports link; anything else (benchmarks, examples) is a standalone
    top-level module named by its stem.
    """
    posix = Path(path).as_posix()
    if _PACKAGE_MARKER in posix:
        rel = posix.rsplit(_PACKAGE_MARKER, 1)[1]
        parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
        is_package = bool(parts) and parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        return ".".join(["repro"] + [p for p in parts if p]), is_package
    stem = Path(path).stem
    return stem, stem == "__init__"


def _build_aliases(
    tree: ast.Module, module: str, is_package: bool
) -> Dict[str, str]:
    """Local name -> absolute dotted path, relative imports resolved."""
    container = module.split(".")
    if not is_package:
        container = container[:-1]
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                cut = len(container) - (node.level - 1)
                if cut < 0:
                    continue  # beyond the package root; unresolvable
                anchor = container[:cut]
                base = ".".join(anchor + ([node.module] if node.module else []))
            elif node.module:
                base = node.module
            else:
                continue
            if not base:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{base}.{item.name}"
    return aliases


@dataclass
class _FunctionAccumulator:
    """Mutable scratch while walking one function body."""

    name: str
    qualname: str
    line: int
    col: int
    is_async: bool
    owner_class: str
    decorators: Tuple[str, ...]
    calls: List[CallSite] = field(default_factory=list)
    sinks: List[SinkSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    returns: List[ReturnSite] = field(default_factory=list)
    local_funcs: List[str] = field(default_factory=list)
    local_lambdas: Set[str] = field(default_factory=set)

    def freeze(self) -> FunctionSummary:
        return FunctionSummary(
            name=self.name,
            qualname=self.qualname,
            line=self.line,
            col=self.col,
            is_async=self.is_async,
            owner_class=self.owner_class,
            decorators=self.decorators,
            calls=tuple(self.calls),
            sinks=tuple(self.sinks),
            raises=tuple(self.raises),
            returns=tuple(self.returns),
            local_funcs=tuple(self.local_funcs),
        )


class _Extractor:
    """One pass over a parsed module producing its summary."""

    def __init__(
        self,
        module: str,
        path: str,
        tree: ast.Module,
        aliases: Dict[str, str],
        suppressions: Dict[int, List[Suppression]],
    ) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        self.aliases = aliases
        self.suppressions = suppressions
        self.functions: List[FunctionSummary] = []
        self.classes: List[ClassSummary] = []
        self.unit_sites: List[UnitSite] = []
        self.module_lambdas: List[str] = []

    # -- name helpers -------------------------------------------------

    def canonical(self, raw: Optional[str]) -> Optional[str]:
        """Alias-resolve the head segment, like the per-file rules do."""
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head

    def _suppressed_at(self, line: int, rule_id: str) -> bool:
        return any(
            s.covers(rule_id) and s.reason
            for s in self.suppressions.get(line, ())
        )

    # -- module walk --------------------------------------------------

    def run(self) -> None:
        for stmt in self.tree.body:
            self._module_stmt(stmt)

    def _module_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(stmt, prefix="", owner_class="")
        elif isinstance(stmt, ast.ClassDef):
            self._class(stmt, prefix="")
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.module_lambdas.append(target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditional defs (version guards) still define symbols.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._module_stmt(child)
        else:
            self._scan_unit_sites(stmt)

    def _class(self, node: ast.ClassDef, prefix: str) -> None:
        qualname = f"{prefix}{node.name}"
        methods: List[str] = []
        attr_types: List[Tuple[str, str]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._function(
                    stmt, prefix=f"{qualname}.", owner_class=qualname
                )
                attr_types.extend(self._self_assignments(stmt))
            elif isinstance(stmt, ast.ClassDef):
                self._class(stmt, prefix=f"{qualname}.")
        bases = tuple(
            name for name in (dotted_name(base) for base in node.bases) if name
        )
        # Conflicting assignments to the same attribute degrade to
        # unknown rather than guessing.
        by_attr: Dict[str, Set[str]] = {}
        for attr, target in attr_types:
            by_attr.setdefault(attr, set()).add(target)
        resolved = tuple(
            (attr, next(iter(targets)))
            for attr, targets in sorted(by_attr.items())
            if len(targets) == 1
        )
        self.classes.append(
            ClassSummary(
                name=node.name,
                qualname=qualname,
                line=node.lineno,
                bases=bases,
                methods=tuple(methods),
                attr_types=resolved,
            )
        )

    def _self_assignments(
        self, fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[Tuple[str, str]]:
        """``self.X = SomeClass(...)`` sites anywhere in a method body."""
        out: List[Tuple[str, str]] = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                for candidate in self._constructor_candidates(node.value):
                    out.append((target.attr, candidate))
        return out

    def _constructor_candidates(self, value: ast.expr) -> List[str]:
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            return [name] if name else []
        if isinstance(value, ast.IfExp):
            return self._constructor_candidates(
                value.body
            ) + self._constructor_candidates(value.orelse)
        return []

    # -- function walk ------------------------------------------------

    def _function(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        prefix: str,
        owner_class: str,
    ) -> None:
        qualname = f"{prefix}{node.name}"
        acc = _FunctionAccumulator(
            name=node.name,
            qualname=qualname,
            line=node.lineno,
            col=node.col_offset + 1,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            owner_class=owner_class,
            decorators=tuple(
                name
                for name in (
                    dotted_name(d.func if isinstance(d, ast.Call) else d)
                    for d in node.decorator_list
                )
                if name
            ),
        )
        nested: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = []
        bridged: Set[int] = set()  # id() of Lambda nodes handed to bridges

        def walk(n: ast.AST) -> None:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                acc.local_funcs.append(n.name)
                nested.append(n)
                return  # its body is a separate function summary
            if isinstance(n, ast.ClassDef):
                return  # nested classes are out of scope, conservatively
            if isinstance(n, ast.Lambda):
                if id(n) in bridged:
                    return  # runs on the executor; not this function's events
                walk(n.body)
                return
            if isinstance(n, ast.Call):
                self._call(n, acc, bridged)
            elif isinstance(n, ast.Raise):
                self._raise(n, acc)
            elif isinstance(n, ast.Return):
                self._return(n, acc)
            elif isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda):
                for target in n.targets:
                    if isinstance(target, ast.Name):
                        acc.local_lambdas.add(target.id)
            for child in ast.iter_child_nodes(n):
                walk(child)

        for stmt in node.body:
            walk(stmt)
        self.functions.append(acc.freeze())
        for child in nested:
            self._function(
                child, prefix=f"{qualname}.<locals>.", owner_class=owner_class
            )

    def _is_bridge(self, call: ast.Call) -> bool:
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _BRIDGE_ATTRS
        ):
            return True
        return self.canonical(dotted_name(call.func)) in _BRIDGE_CALLS

    def _call(
        self, call: ast.Call, acc: _FunctionAccumulator, bridged: Set[int]
    ) -> None:
        raw = dotted_name(call.func)
        line, col = call.lineno, call.col_offset + 1
        if self._is_bridge(call):
            # run_in_executor(executor, fn, *args) / to_thread(fn, ...):
            # the callable argument runs on a worker thread.
            skip = (
                1
                if isinstance(call.func, ast.Attribute)
                and call.func.attr in _BRIDGE_ATTRS
                else 0
            )
            for arg in call.args[skip : skip + 1]:
                if isinstance(arg, ast.Lambda):
                    bridged.add(id(arg))
                    acc.calls.append(CallSite(line, col, "bridge", None))
                else:
                    target = dotted_name(arg)
                    if target is None and isinstance(arg, ast.Call):
                        # partial(fn, ...) under the bridge: fn is bridged
                        inner = dotted_name(arg.func)
                        if self.canonical(inner) in _PARTIAL_NAMES and arg.args:
                            target = dotted_name(arg.args[0])
                    acc.calls.append(CallSite(line, col, "bridge", target))
            return
        acc.calls.append(CallSite(line, col, "call", raw))
        self._sinks(call, raw, acc)
        for arg in list(call.args) + [k.value for k in call.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = dotted_name(arg)
                if ref is not None:
                    acc.calls.append(
                        CallSite(arg.lineno, arg.col_offset + 1, "ref", ref)
                    )
        if is_run_unit(raw):
            self._unit_site(call, acc)

    def _sinks(
        self, call: ast.Call, raw: Optional[str], acc: _FunctionAccumulator
    ) -> None:
        line, col = call.lineno, call.col_offset + 1
        canonical = self.canonical(raw)
        if canonical is not None and (
            canonical in _BLOCKING_CALLS or canonical.startswith(_BLOCKING_PREFIXES)
        ):
            acc.sinks.append(SinkSite(line, col, "blocking", canonical))
        impure = nondeterminism(call, canonical)
        if impure is not None and canonical is not None:
            acc.sinks.append(
                SinkSite(
                    line,
                    col,
                    impure,
                    canonical,
                    suppressed=self._suppressed_at(line, "REP002"),
                )
            )
        # Openers are matched on the raw dotted name, like REP001, so the
        # suppression story is identical; any open is also sync I/O.
        if raw in OPENERS:
            acc.sinks.append(SinkSite(line, col, "blocking", raw))
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _BLOCKING_ATTRS
        ):
            acc.sinks.append(SinkSite(line, col, "blocking", f".{call.func.attr}()"))
        write = raw_write(call, raw)
        if write is not None:
            acc.sinks.append(
                SinkSite(
                    line,
                    col,
                    "write",
                    write,
                    suppressed=self._suppressed_at(line, "REP001"),
                )
            )

    def _raise(self, node: ast.Raise, acc: _FunctionAccumulator) -> None:
        exc = node.exc
        if exc is None:
            return  # bare re-raise
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = dotted_name(exc)
        if name is None:
            return  # raising a variable/expression — unresolvable
        acc.raises.append(RaiseSite(node.lineno, node.col_offset + 1, name))

    def _return(self, node: ast.Return, acc: _FunctionAccumulator) -> None:
        value = node.value
        if value is None:
            return
        site = self._classify_flow(value, acc)
        if site is not None:
            kind, name = site
            acc.returns.append(ReturnSite(node.lineno, kind, name))

    def _classify_flow(
        self, value: ast.expr, acc: Optional[_FunctionAccumulator]
    ) -> Optional[Tuple[str, Optional[str]]]:
        """How a value expression relates to pickle-flow taint."""
        local_funcs = set(acc.local_funcs) if acc else set()
        local_lambdas = acc.local_lambdas if acc else set()
        if isinstance(value, ast.Lambda):
            return ("lambda", None)
        if isinstance(value, ast.Name):
            if value.id in local_lambdas:
                return ("lambda", value.id)
            if value.id in local_funcs:
                return ("nested", value.id)
            return None
        if isinstance(value, ast.Call):
            func_name = dotted_name(value.func)
            if self.canonical(func_name) in _PARTIAL_NAMES:
                if not value.args:
                    return None
                inner = value.args[0]
                if isinstance(inner, ast.Lambda):
                    return ("lambda", None)
                if isinstance(inner, ast.Name):
                    if inner.id in local_lambdas:
                        return ("lambda", inner.id)
                    if inner.id in local_funcs:
                        return ("nested", inner.id)
                    return ("partial", inner.id)
                return None
            if func_name is not None:
                return ("call", func_name)
        return None

    def _scan_unit_sites(self, stmt: ast.stmt) -> None:
        """RunUnit(...) constructions outside any function body."""

        def walk(n: ast.AST) -> None:
            if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return
            if isinstance(n, ast.Call):
                if is_run_unit(dotted_name(n.func)):
                    self._unit_site(n, None)
            for child in ast.iter_child_nodes(n):
                walk(child)

        walk(stmt)

    def _unit_site(
        self, call: ast.Call, acc: Optional[_FunctionAccumulator]
    ) -> None:
        local_funcs = acc.local_funcs if acc else []
        local_lambdas = acc.local_lambdas if acc else set()
        for slot, value in shipped_arguments(call):
            kind: str
            name: Optional[str] = None
            if isinstance(value, ast.Name) and value.id in local_lambdas:
                # A name bound to a *local* lambda: invisible to REP004
                # (which only tracks nested defs).
                kind, name = "local-lambda", value.id
            elif unpicklable_in_place(value, local_funcs) is not None:
                kind = "direct"  # REP004's per-file finding; not duplicated
            elif isinstance(value, (ast.Name, ast.Attribute)):
                kind, name = "name", dotted_name(value)
            elif isinstance(value, ast.Call):
                func_name = dotted_name(value.func)
                if self.canonical(func_name) in _PARTIAL_NAMES and value.args:
                    inner = value.args[0]
                    if isinstance(inner, ast.Lambda):
                        kind = "direct"
                    else:
                        kind, name = "partial", dotted_name(inner)
                else:
                    kind, name = "call", func_name
            else:
                kind = "other"
            self.unit_sites.append(
                UnitSite(
                    line=value.lineno,
                    col=value.col_offset + 1,
                    slot=slot,
                    kind=kind,
                    name=name,
                )
            )


def summarize_source(
    source: str, path: Union[str, Path], tree: Optional[ast.Module] = None
) -> ModuleSummary:
    """Extract one file's :class:`ModuleSummary` (pass 1)."""
    posix = Path(path).as_posix()
    if tree is None:
        tree = ast.parse(source, filename=posix)
    module, is_package = module_name_for(posix)
    aliases = _build_aliases(tree, module, is_package)
    raw_suppressions = scan_suppressions(source)
    extractor = _Extractor(module, posix, tree, aliases, raw_suppressions)
    extractor.run()
    # Deduplicate the scan's per-line registration back into one
    # SuppressionSite per comment, carrying every covered line.
    covered_by: Dict[Tuple[int, int], List[int]] = {}
    originals: Dict[Tuple[int, int], Suppression] = {}
    for masked_line, entries in raw_suppressions.items():
        for suppression in entries:
            key = (suppression.line, suppression.col)
            covered_by.setdefault(key, []).append(masked_line)
            originals[key] = suppression
    suppression_sites = tuple(
        SuppressionSite(
            line=originals[key].line,
            col=originals[key].col,
            covered=tuple(sorted(covered_by[key])),
            rule_ids=originals[key].rule_ids,
            reason=originals[key].reason,
        )
        for key in sorted(originals)
    )
    # Unit sites inside functions are recorded during the function walk;
    # the extractor's function pass appends them to the same list, so
    # order can interleave — normalize for determinism.
    return ModuleSummary(
        module=module,
        path=posix,
        is_package=is_package,
        aliases=tuple(sorted(extractor.aliases.items())),
        functions=tuple(extractor.functions),
        classes=tuple(extractor.classes),
        unit_sites=tuple(
            sorted(extractor.unit_sites, key=lambda u: (u.line, u.col, u.slot))
        ),
        module_lambdas=tuple(extractor.module_lambdas),
        suppressions=suppression_sites,
    )
