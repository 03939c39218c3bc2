"""Pass 1 of the whole-program analyzer: per-module facts + project model.

The two-pass engine (docs/analysis.md §"whole-program pass") first
extracts one :class:`ModuleFacts` record per file — symbol table,
import aliases (a package's lazy ``_LAZY`` re-export table counts as
imports), ``__all__`` exports (a ``*_LAZY`` element lists that table's
names), and one :class:`FunctionFacts` per function (calls made,
resource acquisitions with their syntactic protection, the callees
whose results it returns).  Facts are plain in-memory records built
once per file per scan.

The model then resolves calls **conservatively**: direct calls,
aliased-import calls, ``self.method`` / ``ClassName.method`` calls and
locally-constructed known-class calls resolve to project functions;
anything dynamic resolves to *no target* (never a wrong one), which
keeps RPR009's transitive acquirer check free of false positives at the
cost of missing some wrappers — the right trade for a blocking gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "AcquisitionFact",
    "CallFact",
    "FunctionFacts",
    "ModuleFacts",
    "ProjectModel",
    "extract_module_facts",
    "ACQUIRE_SUFFIXES",
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
    "open": "file-handle",
}

#: Method names that count as releasing a tracked resource.
RELEASE_METHODS = frozenset({"close", "unlink", "shutdown", "stop", "terminate"})

#: Callables that register a deferred release (protection "finalizer").
_FINALIZER_CALLS = frozenset(
    {"weakref.finalize", "finalize", "atexit.register", "register_finalizer"}
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
class FunctionFacts:
    """Everything the interprocedural rules need about one function."""

    qualname: str  #: ``name`` or ``Class.name``
    name: str
    cls: str | None
    line: int
    calls: list[CallFact] = field(default_factory=list)
    acquisitions: list[AcquisitionFact] = field(default_factory=list)
    #: dotted callees of ``return f(...)`` statements (acquirer propagation)
    returned_calls: list[str] = field(default_factory=list)
    #: True when any acquisition's value is returned (acquirer candidate)
    returns_resource: bool = False


@dataclass
class ModuleFacts:
    """The per-file slice of the project model."""

    path: str
    module: str
    is_package: bool = False
    #: ``__all__`` when it is a literal list/tuple of strings (a
    #: ``*_LAZY`` element standing for the ``_LAZY`` keys), else None
    exports: list[str] | None = None
    #: top-level name -> "func" | "class" | "var"
    symbols: dict[str, str] = field(default_factory=dict)
    #: local alias -> dotted import target (``import a.b as c`` →
    #: ``c: a.b``; ``from m import f`` and ``_LAZY = {"f": "m"}`` →
    #: ``f: m.f``)
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


#: Name of a package's PEP 562 re-export table (``repro._lazy``).
_LAZY_TABLE = "_LAZY"


def _lazy_reexports(module: str, node: ast.expr) -> dict[str, str]:
    """``local name -> dotted target`` for a literal ``_LAZY`` table.

    ``{"f": "pkg.mod"}`` re-exports ``pkg.mod.f`` just as ``from pkg.mod
    import f`` would; an entry naming ``<module>.<name>`` is that
    submodule itself.  A table that is not a literal ``str -> str`` dict
    yields nothing (never a wrong target).
    """
    if not isinstance(node, ast.Dict):
        return {}
    out: dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
            and isinstance(value, ast.Constant) and isinstance(value.value, str)
        ):
            return {}
        name, target = key.value, value.value
        out[name] = target if target == f"{module}.{name}" else f"{target}.{name}"
    return out


def _literal_all(node: ast.Assign, lazy: dict[str, str] | None) -> list[str] | None:
    """The names a literal ``__all__`` list or tuple exports, else None.

    A ``*_LAZY`` element stands for the keys of the module's ``_LAZY``
    table (``lazy``, None when no table came before it), so
    ``["__version__", *_LAZY]`` exports the table's names and one more.
    """
    value = node.value
    if not isinstance(value, (ast.List, ast.Tuple)):
        return None
    names = []
    for elt in value.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            names.append(elt.value)
        elif (
            isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Name)
            and elt.value.id == _LAZY_TABLE and lazy is not None
        ):
            names.extend(lazy)
        else:
            return None
    return names


class _FunctionScanner:
    """One statement-ordered walk over a function body.

    Computes, path-insensitively, the protection class of every
    acquisition and the call / returned-callee facts.  The
    walk is two-phase: phase 1 collects *protected names* (names that
    are with-items, released in a finally, registered with a finalizer,
    returned, or transferred into containers/arguments); phase 2
    classifies each acquisition site against that set.
    """

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls_name: str | None, module_facts: ModuleFacts) -> None:
        self.fn = fn
        self.mod = module_facts
        qual = fn.name if cls_name is None else f"{cls_name}.{fn.name}"
        self.facts = FunctionFacts(
            qualname=qual, name=fn.name, cls=cls_name, line=fn.lineno,
        )
        self._protected: set[str] = set()
        self._released_safely: set[str] = set()
        self._finalized: set[str] = set()
        self._returned_names: set[str] = set()
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
        for stmt in self._iter_own_statements(self.fn.body):
            self._scan_statement(stmt, with_items)
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
        # ``return f(...)``: f's resource, if any, passes to our caller
        if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Call):
            dotted = _dotted(stmt.value.func)
            if dotted is not None:
                self.facts.returned_calls.append(dotted)
        # track name -> constructed class for this statement
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
                    if dotted in self.mod.classes:
                        self._local_types[name] = dotted
        elif assigned_names:
            for name in assigned_names:
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

    def _record_call(self, node: ast.Call, stmt: ast.stmt,
                     with_items: set[int]) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        # normalise method calls on locally-constructed known classes:
        # ``v = ClassName(...); v.m()`` resolves as ``ClassName.m``
        head, _, rest = dotted.partition(".")
        if rest and head in self._local_types:
            dotted = f"{self._local_types[head]}.{rest}"
        protection = self._protection_for(node, stmt, with_items)
        self.facts.calls.append(
            CallFact(dotted, node.lineno, node.col_offset, protection)
        )
        # resource acquisitions (RPR009 input)
        kind = self._acquisition_kind(dotted)
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

    @staticmethod
    def _acquisition_kind(dotted: str) -> str | None:
        # every table key has at most two components
        return ACQUIRE_SUFFIXES.get(".".join(dotted.split(".")[-2:]))

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
    lazy: dict[str, str] | None = None  # the ``_LAZY`` table, once seen
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
                        facts.exports = _literal_all(stmt, lazy)
                    if target.id == _LAZY_TABLE and stmt.value is not None:
                        lazy = _lazy_reexports(module, stmt.value)
                        for local, dotted in lazy.items():
                            facts.imports.setdefault(local, dotted)
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
    facts.functions.append(fn_facts)
    # nested defs are scanned as their own (qualified) functions so their
    # acquisitions and calls are still checked
    for stmt in ast.walk(fn):
        if stmt is fn:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _FunctionScanner(stmt, None, facts)
            nested_facts = nested.scan()
            nested_facts.qualname = f"{fn_facts.qualname}.<locals>.{stmt.name}"
            facts.functions.append(nested_facts)


# ----------------------------------------------------------------------
# the project model
# ----------------------------------------------------------------------


class ProjectModel:
    """Whole-program view: modules, symbol tables, conservative call resolution.

    Functions are keyed by ``"module:qualname"`` ids.  ``resolve_call``
    maps one textual callee (as recorded in a :class:`CallFact`) to a
    function id, or ``None`` when the call cannot be resolved with
    certainty — dynamic calls degrade to *no target*.
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
