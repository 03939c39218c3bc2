"""Pass 1 of the whole-program analyzer: per-module facts + project model.

The two-pass engine (docs/analysis.md §"whole-program pass") first
extracts one :class:`ModuleFacts` record per file — symbol table,
import aliases, ``__all__`` exports, and one :class:`FunctionFacts` per
function (calls made, resource acquisitions with their syntactic
protection, module-global writes, reduction sites, return-dtype atoms).
Facts are plain in-memory records built once per file per scan.

The model then resolves a **conservative call graph**: direct calls,
aliased-import calls, ``self.method`` / ``ClassName.method`` calls and
locally-constructed known-class calls resolve to project functions;
anything dynamic resolves to *no edge* (never a wrong edge), which keeps
the reachability-based rules (RPR010) free of false positives at the
cost of under-approximating reach — the right trade for a blocking gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "AcquisitionFact",
    "CallFact",
    "StoreFact",
    "ReductionFact",
    "FunctionFacts",
    "ModuleFacts",
    "ProjectModel",
    "extract_module_facts",
    "ACQUIRE_SUFFIXES",
    "ACQUIRE_RESOLVED",
    "RELEASE_METHODS",
]

# ----------------------------------------------------------------------
# acquisition / release tables (RPR009)
# ----------------------------------------------------------------------

#: Literal dotted-name suffixes that acquire a tracked resource.  The
#: value is the resource kind reported in findings.
ACQUIRE_SUFFIXES: dict[str, str] = {
    "SharedMemory": "shm-segment",
    "shared_memory.SharedMemory": "shm-segment",
    "SharedGraphBuffers.publish": "shm-publication",
    "attach_graph": "shm-attachment",
    "open_memmap": "mmap-handle",
    "open": "file-handle",
}

#: Fully-resolved ``module:qualname`` targets that acquire a resource
#: (covers ``from repro.parallel.shm import attach_graph``-style aliased
#: imports).
ACQUIRE_RESOLVED: dict[str, str] = {
    "repro.parallel.shm:SharedGraphBuffers.publish": "shm-publication",
    "repro.parallel.shm:attach_graph": "shm-attachment",
}

#: Method names that count as releasing a tracked resource.
RELEASE_METHODS = frozenset({"close", "unlink", "shutdown", "stop", "terminate"})

#: Callables that register a deferred release (protection "finalizer").
_FINALIZER_CALLS = frozenset(
    {"weakref.finalize", "finalize", "atexit.register", "register_finalizer"}
)

#: numpy dtype attributes considered narrow / wide (mirrors rules.py —
#: duplicated here so facts extraction has no import cycle with rules).
_NARROW_DTYPE_ATTRS = frozenset(
    {"int8", "int16", "int32", "intc", "uint8", "uint16", "uint32"}
)
_WIDE_DTYPE_ATTRS = frozenset(
    {"int64", "uint64", "float64", "bool_", "intp", "longlong"}
)
_WIDE_DTYPE_NAMES = frozenset({"COUNT_DTYPE", "INDEX_DTYPE"})
_PRESERVING_METHODS = frozenset(
    {"copy", "reshape", "ravel", "flatten", "transpose", "view"}
)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# ----------------------------------------------------------------------
# fact records
# ----------------------------------------------------------------------


@dataclass
class CallFact:
    """One call expression inside a function body.

    ``protection`` classifies how the call's *value* is handled (same
    vocabulary as :class:`AcquisitionFact`); it is what turns a call to
    an acquirer function into an RPR009 acquisition site.
    """

    callee: str  #: dotted spelling as written (``self.x`` preserved)
    line: int
    col: int
    protection: str = "transfer"
    #: first positional argument when it is a bare Name (dispatcher
    #: indirection: ``self._map(_task_fn, items)`` roots ``_task_fn``)
    first_arg: str | None = None


@dataclass
class AcquisitionFact:
    """A call that acquires a tracked resource, with its protection.

    ``protection`` is the syntactic discipline seen at/after the site:

    - ``"with"`` — the call is a ``with`` item;
    - ``"released"`` — the bound name is released inside a ``finally``
      (or an ``except`` that re-raises);
    - ``"finalizer"`` — the bound name is registered with
      ``weakref.finalize`` / ``atexit.register``;
    - ``"transfer"`` — ownership leaves the function (returned/yielded,
      passed as a direct argument, stored into a container/attribute);
    - ``"none"`` — none of the above: a leak on every exceptional path.
    """

    kind: str
    callee: str
    line: int
    col: int
    protection: str


@dataclass
class StoreFact:
    """A store whose target may be module-level state (RPR010 input).

    ``kind`` is ``"global"`` (name assigned under a ``global``
    declaration), ``"subscript"`` (``X[...] = v``), ``"attribute"``
    (``X.attr = v``) or ``"imported"`` (attribute store on a name bound
    by a function-level import — a module monkeypatch); ``target`` is
    the base name being mutated.
    """

    target: str
    line: int
    col: int
    kind: str


@dataclass
class ReductionFact:
    """A ``sum``/``cumsum`` without ``dtype=``/``out=`` whose operand is
    a call to a project function (directly, or through one local name)."""

    callee: str  #: dotted spelling of the operand-producing call
    spelled: str  #: how the reduction was written, for the message
    line: int
    col: int


@dataclass
class FunctionFacts:
    """Everything the interprocedural rules need about one function."""

    qualname: str  #: ``name`` or ``Class.name``
    name: str
    cls: str | None
    line: int
    params: list[str] = field(default_factory=list)
    calls: list[CallFact] = field(default_factory=list)
    acquisitions: list[AcquisitionFact] = field(default_factory=list)
    stores: list[StoreFact] = field(default_factory=list)
    obs_state_calls: list[CallFact] = field(default_factory=list)
    reductions: list[ReductionFact] = field(default_factory=list)
    #: return atoms: "wide" | "narrow" | "unknown" | "call:<dotted>" |
    #: "param:<name>"
    returns: list[str] = field(default_factory=list)
    #: names of functions this one hands to a pool (``.map``/``.submit``)
    dispatches: list[str] = field(default_factory=list)
    #: True when any acquisition's value is returned (acquirer candidate)
    returns_resource: bool = False
    #: names bound locally (params, assignments, loop/with targets) —
    #: lets RPR010 tell a module-global mutation from a local one
    local_names: list[str] = field(default_factory=list)
    #: local name -> dotted callee it was assigned from (shm-attachment
    #: aliasing for RPR010's attached-array-mutation check)
    assigned_from: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    """The per-file slice of the project model."""

    path: str
    module: str
    is_package: bool = False
    #: ``__all__`` when it is a literal list/tuple of strings, else None
    exports: list[str] | None = None
    #: top-level name -> "func" | "class" | "var"
    symbols: dict[str, str] = field(default_factory=dict)
    #: local alias -> dotted import target (``import a.b as c`` →
    #: ``c: a.b``; ``from m import f`` → ``f: m.f``)
    imports: dict[str, str] = field(default_factory=dict)
    #: class name -> method names (for self./ClassName. resolution)
    classes: dict[str, list[str]] = field(default_factory=dict)
    functions: list[FunctionFacts] = field(default_factory=list)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str | None:
    if not node.level:
        return node.module
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    drop = node.level - 1
    if drop:
        base = base[:-drop] if drop <= len(base) else []
    suffix = node.module.split(".") if node.module else []
    return ".".join(base + suffix) if (base or suffix) else None


def _literal_all(node: ast.Assign | ast.AugAssign) -> list[str] | None:
    value = node.value
    if isinstance(value, (ast.List, ast.Tuple)):
        names = []
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.append(elt.value)
            else:
                return None
        return names
    return None


class _FunctionScanner:
    """One statement-ordered walk over a function body.

    Computes, path-insensitively, the protection class of every
    acquisition and the store / call / reduction / return facts.  The
    walk is two-phase: phase 1 collects *protected names* (names that
    are with-items, released in a finally, registered with a finalizer,
    returned, or transferred into containers/arguments); phase 2
    classifies each acquisition site against that set.
    """

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls_name: str | None, module_facts: ModuleFacts) -> None:
        self.fn = fn
        self.cls_name = cls_name
        self.mod = module_facts
        qual = fn.name if cls_name is None else f"{cls_name}.{fn.name}"
        params = [a.arg for a in (
            fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        )]
        if fn.args.vararg:
            params.append(fn.args.vararg.arg)
        if fn.args.kwarg:
            params.append(fn.args.kwarg.arg)
        self.facts = FunctionFacts(
            qualname=qual, name=fn.name, cls=cls_name, line=fn.lineno,
            params=params,
        )
        self._global_names: set[str] = set()
        self._protected: set[str] = set()
        self._released_safely: set[str] = set()
        self._finalized: set[str] = set()
        self._returned_names: set[str] = set()
        #: local name -> dotted callee it was last assigned from
        self._assigned_from_call: dict[str, str] = {}
        #: like the above but never cleared on reassignment (RPR010 uses
        #: "was this name *ever* bound from an attachment call")
        self._ever_assigned_from: dict[str, str] = {}
        #: names bound by function-level import statements — attribute
        #: stores on these are module monkeypatches (RPR010)
        self._fn_imports: set[str] = set()
        #: local name -> class name it was constructed from
        self._local_types: dict[str, str] = {}

    # -- phase 1: protected-name collection ----------------------------
    def _collect_protected(self, body: list[ast.stmt], in_finally: bool,
                           in_reraise_handler: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a name captured by a nested def (closure) escapes; the
                # nested body is scanned as its own function elsewhere
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        self._protected.add(node.id)
                continue
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                self._global_names.update(stmt.names)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name):
                        self._protected.add(expr.id)
                self._collect_protected(stmt.body, in_finally, in_reraise_handler)
                continue
            if isinstance(stmt, ast.Try):
                self._collect_protected(stmt.body, in_finally, in_reraise_handler)
                self._collect_protected(stmt.orelse, in_finally, in_reraise_handler)
                for handler in stmt.handlers:
                    reraises = any(
                        isinstance(n, ast.Raise) for n in ast.walk(handler)
                    )
                    self._collect_protected(
                        handler.body, in_finally, in_reraise_handler or reraises
                    )
                self._collect_protected(stmt.finalbody, True, in_reraise_handler)
                continue
            if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
                self._collect_protected(stmt.body, in_finally, in_reraise_handler)
                self._collect_protected(stmt.orelse, in_finally, in_reraise_handler)
                continue
            self._collect_protected_stmt(stmt, in_finally, in_reraise_handler)

    def _collect_protected_stmt(self, stmt: ast.stmt, in_finally: bool,
                                in_reraise_handler: bool) -> None:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            for name in self._bare_names_shallow(stmt.value):
                self._protected.add(name)
                self._returned_names.add(name)
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            if stmt.value.value is not None:
                for name in self._bare_names_shallow(stmt.value.value):
                    self._protected.add(name)
                    self._returned_names.add(name)
            return
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                # x.close() inside a finally (or a re-raising handler)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in RELEASE_METHODS
                    and isinstance(node.func.value, ast.Name)
                ):
                    if in_finally or in_reraise_handler:
                        self._released_safely.add(node.func.value.id)
                if dotted is not None and (
                    dotted in _FINALIZER_CALLS
                    or dotted.split(".")[-1] in ("finalize", "register")
                ):
                    for arg in node.args:
                        for name in self._bare_names_shallow(arg):
                            self._finalized.add(name)
                # a bare name passed as a direct argument transfers
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name):
                        self._protected.add(arg.id)
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    for elt in node.elts:
                        if isinstance(elt, ast.Name):
                            self._protected.add(elt.id)
            elif isinstance(node, ast.Dict):
                for v in node.values:
                    if isinstance(v, ast.Name):
                        self._protected.add(v.id)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    # storing *into* a container/attribute transfers the
                    # stored value's ownership to the container
                    value = getattr(stmt, "value", None)
                    if isinstance(value, ast.Name):
                        self._protected.add(value.id)

    @staticmethod
    def _bare_names_shallow(expr: ast.expr) -> Iterator[str]:
        """Bare names of ``expr`` at tuple/starred depth (not inside
        attribute/subscript chains): the names whose *object* escapes."""
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, (ast.Tuple, ast.List)):
                stack.extend(node.elts)
            elif isinstance(node, ast.Starred):
                stack.append(node.value)
            elif isinstance(node, ast.Call):
                stack.extend(node.args)
                stack.extend(kw.value for kw in node.keywords)

    # -- phase 2: per-statement facts ----------------------------------
    def scan(self) -> FunctionFacts:
        self._collect_protected(self.fn.body, False, False)
        with_items: set[int] = set()
        for node in ast.walk(self.fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        locals_: set[str] = set(self.facts.params)
        for stmt in self._iter_own_statements(self.fn.body):
            self._scan_statement(stmt, with_items)
            for node in self._walk_no_nested(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    if node.id not in self._global_names:
                        locals_.add(node.id)
            # with ... as x / for x in ... bind locals too
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        locals_.add(item.optional_vars.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for node in ast.walk(stmt.target):
                    if isinstance(node, ast.Name):
                        locals_.add(node.id)
        self.facts.local_names = sorted(locals_)
        self.facts.assigned_from = dict(self._ever_assigned_from)
        return self.facts

    def _iter_own_statements(self, body: list[ast.stmt]) -> Iterator[ast.stmt]:
        """All statements of this function, skipping nested defs."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield stmt
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if sub:
                    yield from self._iter_own_statements(sub)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._iter_own_statements(handler.body)

    def _scan_statement(self, stmt: ast.stmt, with_items: set[int]) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name != "*":
                    self._fn_imports.add(
                        alias.asname or alias.name.split(".")[0]
                    )
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._record_stores(stmt)
        # track name -> callee / constructed class for this statement
        assigned_names: list[str] = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for elt in elts:
                    if isinstance(elt, ast.Name):
                        assigned_names.append(elt.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            assigned_names.append(stmt.target.id)
        value = getattr(stmt, "value", None)
        if assigned_names and isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None:
                for name in assigned_names:
                    self._assigned_from_call[name] = dotted
                    self._ever_assigned_from[name] = dotted
                    if dotted in self.mod.classes:
                        self._local_types[name] = dotted
        elif assigned_names:
            for name in assigned_names:
                self._assigned_from_call.pop(name, None)
                self._local_types.pop(name, None)
        for node in self._walk_no_nested(stmt):
            if isinstance(node, ast.Call):
                self._record_call(node, stmt, with_items)

    def _walk_no_nested(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        """ast.walk over one statement, not descending into nested defs
        or compound-statement bodies (those come via _iter_own_statements
        — headers like ``if``-tests and ``with``-items are included)."""
        roots: list[ast.AST] = []
        if isinstance(stmt, (ast.If, ast.While)):
            roots = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            roots = [stmt.iter, stmt.target]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            roots = [item.context_expr for item in stmt.items]
        elif isinstance(stmt, ast.Try):
            roots = []
        else:
            roots = [stmt]
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                yield node

    def _record_stores(self, stmt: ast.stmt) -> None:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            nodes = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for node in nodes:
                if isinstance(node, ast.Name):
                    if node.id in self._global_names:
                        self.facts.stores.append(
                            StoreFact(node.id, stmt.lineno, stmt.col_offset,
                                      "global")
                        )
                elif isinstance(node, ast.Subscript):
                    base = node.value
                    if isinstance(base, ast.Name):
                        self.facts.stores.append(
                            StoreFact(base.id, stmt.lineno, stmt.col_offset,
                                      "subscript")
                        )
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name):
                        kind = (
                            "imported"
                            if base.id in self._fn_imports
                            else "attribute"
                        )
                        self.facts.stores.append(
                            StoreFact(base.id, stmt.lineno, stmt.col_offset,
                                      kind)
                        )

    def _record_call(self, node: ast.Call, stmt: ast.stmt,
                     with_items: set[int]) -> None:
        # reductions over call results (``helper(x).sum()``) have no
        # dotted spelling for the outer call — record them first
        self._maybe_record_reduction(node)
        dotted = _dotted(node.func)
        if dotted is None:
            return
        # normalise method calls on locally-constructed known classes:
        # ``v = ClassName(...); v.m()`` resolves as ``ClassName.m``
        head, _, rest = dotted.partition(".")
        if rest and head in self._local_types:
            dotted = f"{self._local_types[head]}.{rest}"
        protection = self._protection_for(node, stmt, with_items)
        first_arg = (
            node.args[0].id
            if node.args and isinstance(node.args[0], ast.Name)
            else None
        )
        self.facts.calls.append(
            CallFact(dotted, node.lineno, node.col_offset, protection, first_arg)
        )
        # pool dispatch: first-arg Name of ``<obj>.map(fn, ...)`` /
        # ``<obj>.submit(fn, ...)`` names a worker-side task function.
        # When that Name is a *parameter* of this function, this function
        # is a dispatcher wrapper (``self._map(fn, tasks)``): record it
        # as ``param:<name>`` so call sites one level up become roots.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("map", "submit")
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            arg = node.args[0].id
            if arg in self.facts.params:
                self.facts.dispatches.append(f"param:{arg}")
            else:
                self.facts.dispatches.append(arg)
        # obs global-state mutation (RPR010 input)
        if dotted in ("obs.reset", "obs.enable", "obs.disable"):
            self.facts.obs_state_calls.append(
                CallFact(dotted, node.lineno, node.col_offset)
            )
        # resource acquisitions (RPR009 input)
        kind = self._acquisition_kind(node, dotted)
        if kind is not None:
            bound = self._bound_names(stmt, node) or set()
            if protection == "transfer" and (
                self._is_returned(stmt, node) or bound & self._returned_names
            ):
                self.facts.returns_resource = True
            self.facts.acquisitions.append(
                AcquisitionFact(kind, dotted, node.lineno, node.col_offset,
                                protection)
            )

    def _maybe_record_reduction(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("sum", "cumsum"):
            return
        if _keyword(node, "dtype") is not None or _keyword(node, "out") is not None:
            return
        if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
            operand = node.args[0] if node.args else None
            spelled = f"np.{func.attr}(...)"
        else:
            operand = func.value
            spelled = f".{func.attr}()"
        callee: str | None = None
        if isinstance(operand, ast.Call):
            callee = _dotted(operand.func)
        elif isinstance(operand, ast.Name):
            callee = self._assigned_from_call.get(operand.id)
        if callee is not None:
            self.facts.reductions.append(
                ReductionFact(callee, spelled, node.lineno, node.col_offset)
            )

    def _acquisition_kind(self, node: ast.Call, dotted: str) -> str | None:
        if dotted in ACQUIRE_SUFFIXES:
            return ACQUIRE_SUFFIXES[dotted]
        tail2 = ".".join(dotted.split(".")[-2:])
        if tail2 in ACQUIRE_SUFFIXES:
            return ACQUIRE_SUFFIXES[tail2]
        # np.load(..., mmap_mode=...) maps a file
        if dotted.split(".")[-1] == "load" and _keyword(node, "mmap_mode") is not None:
            return "mmap-handle"
        return None

    def _protection_for(self, node: ast.Call, stmt: ast.stmt,
                        with_items: set[int]) -> str:
        if id(node) in with_items:
            return "with"
        if isinstance(stmt, (ast.Return, ast.Expr)) and self._is_returned(stmt, node):
            return "transfer"
        bound = self._bound_names(stmt, node)
        if bound is None:
            # the call is nested inside a larger expression (an argument,
            # a container literal): its value escapes into that context
            return "transfer"
        if not bound:
            return "none"  # bare expression statement: value discarded
        if bound & self._released_safely:
            return "released"
        if bound & self._finalized:
            return "finalizer"
        if bound & self._protected:
            return "transfer"
        return "none"

    @staticmethod
    def _is_returned(stmt: ast.stmt, node: ast.Call) -> bool:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            return any(n is node for n in ast.walk(stmt.value))
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            value = stmt.value.value
            return value is not None and any(n is node for n in ast.walk(value))
        return False

    def _bound_names(self, stmt: ast.stmt, node: ast.Call) -> set[str] | None:
        """Names the call's value is bound to, ``None`` when it is nested
        inside a larger expression, ``set()`` when discarded."""
        value = getattr(stmt, "value", None)
        if value is node:
            if isinstance(stmt, ast.Assign):
                names: set[str] = set()
                for target in stmt.targets:
                    elts = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elt in elts:
                        if isinstance(elt, ast.Name):
                            names.add(elt.id)
                        else:
                            return None  # self.x = acquire(): container store
                return names
            if isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    return {stmt.target.id}
                return None
            if isinstance(stmt, ast.Expr):
                return set()
            if isinstance(stmt, ast.Return):
                return None
        # nested somewhere inside the statement's expressions
        return None


def extract_module_facts(
    tree: ast.Module, path: str, module: str, *, is_package: bool = False,
) -> ModuleFacts:
    """One AST walk producing the per-file model slice."""
    facts = ModuleFacts(path=path, module=module, is_package=is_package)
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    facts.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    facts.imports[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            target = _resolve_relative(module, is_package, stmt)
            if target is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                facts.imports[local] = f"{target}.{alias.name}"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id == "__all__" and isinstance(stmt, ast.Assign):
                        facts.exports = _literal_all(stmt)
                    facts.symbols.setdefault(target.id, "var")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.symbols[stmt.name] = "func"
        elif isinstance(stmt, ast.ClassDef):
            facts.symbols[stmt.name] = "class"
            facts.classes[stmt.name] = [
                s.name for s in stmt.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    # function bodies (methods included), in source order
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scan_function_tree(stmt, None, facts)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _scan_function_tree(sub, stmt.name, facts)
    return facts


def _scan_function_tree(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                        cls_name: str | None, facts: ModuleFacts) -> None:
    scanner = _FunctionScanner(fn, cls_name, facts)
    fn_facts = scanner.scan()
    fn_facts.returns.extend(_return_atoms(fn, fn_facts.params))
    facts.functions.append(fn_facts)
    # nested defs are scanned as their own (qualified) functions so their
    # calls still contribute conservative call-graph edges
    for stmt in ast.walk(fn):
        if stmt is fn:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _FunctionScanner(stmt, None, facts)
            nested_facts = nested.scan()
            nested_facts.qualname = f"{fn_facts.qualname}.<locals>.{stmt.name}"
            facts.functions.append(nested_facts)


# -- return-dtype atoms (RPR011 input) ---------------------------------


def _return_atoms(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                  params: list[str]) -> list[str]:
    atoms: list[str] = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            continue
        if isinstance(node, ast.Return) and node.value is not None:
            atoms.append(_classify_return(node.value, set(params)))
    return atoms


def _classify_return(expr: ast.expr, params: set[str]) -> str:
    if isinstance(expr, ast.Constant):
        return "wide"
    if isinstance(expr, ast.Name):
        return f"param:{expr.id}" if expr.id in params else "unknown"
    if isinstance(expr, ast.Call):
        func = expr.func
        dotted = _dotted(func)
        if isinstance(func, ast.Attribute):
            if func.attr == "astype" and expr.args:
                return "wide" if _dtype_is_wide(expr.args[0]) else (
                    "narrow" if _dtype_is_narrow(expr.args[0]) else "unknown"
                )
            dtype_kw = _keyword(expr, "dtype")
            if func.attr in ("zeros", "ones", "empty", "full", "arange",
                             "asarray", "array", "sum", "cumsum"):
                if dtype_kw is not None:
                    return "wide" if _dtype_is_wide(dtype_kw) else (
                        "narrow" if _dtype_is_narrow(dtype_kw) else "unknown"
                    )
                return "unknown"
            if func.attr in _PRESERVING_METHODS and isinstance(func.value, ast.Name):
                base = func.value.id
                return f"param:{base}" if base in params else "unknown"
        if isinstance(func, ast.Name) and func.id in ("int", "float", "len",
                                                      "bool", "abs"):
            return "wide"
        if dotted is not None:
            return f"call:{dotted}"
        return "unknown"
    if isinstance(expr, ast.BinOp):
        left = _classify_return(expr.left, params)
        right = _classify_return(expr.right, params)
        if "narrow" in (left, right):
            return "narrow"
        if left == "wide" and right == "wide":
            return "wide"
        return "unknown"
    return "unknown"


def _dtype_is_wide(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in _WIDE_DTYPE_NAMES or expr.id in ("int", "float", "bool")
    if isinstance(expr, ast.Attribute):
        return expr.attr in _WIDE_DTYPE_ATTRS
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value in ("int64", "uint64", "float64", "bool")
    return False


def _dtype_is_narrow(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr in _NARROW_DTYPE_ATTRS
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value in _NARROW_DTYPE_ATTRS
    return False


# ----------------------------------------------------------------------
# the project model + call graph
# ----------------------------------------------------------------------


class ProjectModel:
    """Whole-program view: modules, symbol tables, conservative call graph.

    Functions are keyed by ``"module:qualname"`` ids.  ``resolve_call``
    maps one textual callee (as recorded in a :class:`CallFact`) to a
    function id, or ``None`` when the call cannot be resolved with
    certainty — dynamic calls degrade to *no edge*.
    """

    def __init__(self, modules: Iterable[ModuleFacts],
                 api_doc: str | None = None,
                 api_doc_path: str | None = None) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        for mod in modules:
            self.modules[mod.module] = mod
        self.api_doc = api_doc
        self.api_doc_path = api_doc_path
        #: function id -> (ModuleFacts, FunctionFacts)
        self.functions: dict[str, tuple[ModuleFacts, FunctionFacts]] = {}
        for mod in self.modules.values():
            for fn in mod.functions:
                self.functions[f"{mod.module}:{fn.qualname}"] = (mod, fn)
        self._edges: dict[str, list[str]] | None = None

    # -- resolution ----------------------------------------------------
    def resolve_call(self, mod: ModuleFacts, fn: FunctionFacts | None,
                     callee: str) -> str | None:
        parts = callee.split(".")
        head, rest = parts[0], parts[1:]
        # self.method -> method of the enclosing class (same module)
        if head == "self" and fn is not None and fn.cls is not None and rest:
            fid = f"{mod.module}:{fn.cls}.{rest[0]}"
            return fid if fid in self.functions else None
        if head == "cls" and fn is not None and fn.cls is not None and rest:
            fid = f"{mod.module}:{fn.cls}.{rest[0]}"
            return fid if fid in self.functions else None
        # plain name: module-local function, class ctor, or imported symbol
        if not rest:
            fid = f"{mod.module}:{head}"
            if fid in self.functions:
                return fid
            if head in mod.classes:
                init = f"{mod.module}:{head}.__init__"
                return init if init in self.functions else None
            target = mod.imports.get(head)
            if target is not None:
                return self._resolve_dotted_target(target)
            return None
        # ClassName.method in this module
        if head in mod.classes:
            fid = f"{mod.module}:{head}.{rest[0]}"
            return fid if fid in self.functions else None
        # alias.( ... ) through an import
        target = mod.imports.get(head)
        if target is not None:
            return self._resolve_dotted_target(".".join([target] + rest))
        # fully-dotted spelling of a known module
        return self._resolve_dotted_target(callee)

    def _resolve_dotted_target(self, dotted: str) -> str | None:
        """``a.b.c.f`` / ``a.b:C.m`` -> function id when it exists."""
        parts = dotted.split(".")
        # longest module-name prefix wins
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                qual = ".".join(parts[cut:])
                fid = f"{module}:{qual}"
                if fid in self.functions:
                    return fid
                # an imported name re-exported by a package __init__:
                # follow one level of import indirection
                mod = self.modules[module]
                target = mod.imports.get(parts[cut]) if cut < len(parts) else None
                if target is not None:
                    rest = parts[cut + 1:]
                    return self._resolve_dotted_target(
                        ".".join([target] + rest) if rest else target
                    )
                return None
        return None

    # -- graph ---------------------------------------------------------
    @property
    def edges(self) -> dict[str, list[str]]:
        if self._edges is None:
            edges: dict[str, list[str]] = {}
            for fid, (mod, fn) in self.functions.items():
                out: list[str] = []
                for call in fn.calls:
                    target = self.resolve_call(mod, fn, call.callee)
                    if target is not None and target != fid:
                        out.append(target)
                edges[fid] = out
            self._edges = edges
        return self._edges

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure over the call graph from ``roots``."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            fid = stack.pop()
            if fid in seen:
                continue
            seen.add(fid)
            stack.extend(t for t in self.edges.get(fid, ()) if t not in seen)
        return seen

    def dispatch_roots(self) -> set[str]:
        """Function ids handed to a pool ``.map``/``.submit`` anywhere.

        Direct dispatch (``pool.map(_task, items)``) roots ``_task``.
        One level of dispatcher indirection is also resolved: a function
        that forwards a *parameter* into ``.map``/``.submit`` (``def
        _map(self, fn, tasks): return pool.map(fn, tasks)``) makes every
        bare-Name first argument at its call sites a root
        (``self._map(_task, tasks)`` roots ``_task``).
        """
        roots: set[str] = set()
        dispatchers: set[str] = set()
        for fid, (mod, fn) in self.functions.items():
            for name in fn.dispatches:
                if name.startswith("param:"):
                    dispatchers.add(fid)
                    continue
                target = self.resolve_call(mod, fn, name)
                if target is not None:
                    roots.add(target)
        if dispatchers:
            for fid, (mod, fn) in self.functions.items():
                for call in fn.calls:
                    if call.first_arg is None:
                        continue
                    target = self.resolve_call(mod, fn, call.callee)
                    if target in dispatchers:
                        root = self.resolve_call(mod, fn, call.first_arg)
                        if root is not None:
                            roots.add(root)
        return roots
