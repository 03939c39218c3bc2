"""The project-native rule catalog.

Each rule is a small AST walker over a shared :class:`ModuleContext`.
The rules encode *this repo's* correctness conventions — the invariants
that keep eq. (4)/eq. (18) butterfly counts exact and the layer
boundaries honest — not generic style:

RPR001  private-module/symbol imports across package boundaries
RPR002  integer reductions without an explicit ``COUNT_DTYPE`` dtype
RPR003  observability hygiene (span usage, metric names, disabled-path cost)
RPR004  engine-plan purity (no plan mutation / inline member selection)
RPR006  exception discipline (no bare/broad/swallowed handlers)
RPR013  module-level imports the module never references

Interprocedural rules (pass 2, over the whole-program model built by
``analysis/model.py`` — see docs/analysis.md §"whole-program pass"):

RPR009  resource-lifecycle discipline (shm / file releases)
RPR012  public-API surface drift (``__all__`` vs ``docs/api.md``)

See ``docs/analysis.md`` for the full rationale, the paper references,
and the list of true positives each rule caught when first run.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, _dotted

__all__ = [
    "Rule",
    "ProjectRule",
    "RULES",
    "ALL_RULE_IDS",
    "resolve_rules",
    "DEFAULT_KNOWN_PACKAGES",
]

#: Fallback package set for in-memory fixture scans (tests); directory
#: scans compute the real set from the ``__init__.py`` files they see.
DEFAULT_KNOWN_PACKAGES: frozenset[str] = frozenset(
    {
        "repro",
        "repro.analysis",
        "repro.baselines",
        "repro.bench",
        "repro.core",
        "repro.core.peeling",
        "repro.core.stream",
        "repro.engine",
        "repro.flame",
        "repro.graphs",
        "repro.metrics",
        "repro.obs",
        "repro.parallel",
        "repro.reference",
        "repro.sparsela",
    }
)

#: dtype expressions accepted as "explicitly wide enough" by RPR002.
_SAFE_DTYPE_NAMES = frozenset({"COUNT_DTYPE", "INDEX_DTYPE"})
_SAFE_DTYPE_ATTRS = frozenset(
    {"int64", "uint64", "float64", "bool_", "intp", "longlong"}
)
_NARROW_DTYPE_ATTRS = frozenset({"int8", "int16", "int32", "intc", "uint8", "uint16", "uint32"})

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
_METRIC_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*\.")
_IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement check()."""

    id: str = "RPR000"
    title: str = ""
    severity: str = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
        )


# ----------------------------------------------------------------------
# helpers shared by several rules
# ----------------------------------------------------------------------

def _is_private_component(part: str) -> bool:
    return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _obs_call(node: ast.Call) -> str | None:
    """'inc' / 'observe' / 'gauge' / 'span' when the call targets repro.obs."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "obs"
        and func.attr in ("inc", "observe", "gauge", "span")
    ):
        return func.attr
    return None


# ----------------------------------------------------------------------
# RPR001 — private imports across package boundaries
# ----------------------------------------------------------------------

class PrivateImportRule(Rule):
    """``repro.X._y`` (or ``from repro.X.y import _z``) outside ``repro.X``.

    Private modules and ``_``-prefixed symbols are owned by the package
    that defines them; every other layer must use the public re-exports
    (``repro.sparsela.CompressedPattern``, ``repro.core.parallel.count_range``,
    ``repro.core.workinfo.resolve_invariant``, …).  Cross-boundary private
    imports were exactly how the bench/workmodel tangle formed.
    """

    id = "RPR001"
    title = "private import crosses a package boundary"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_module(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = self._resolve(ctx, node)
                if module is None:
                    continue
                yield from self._check_module(ctx, node, module)
                if self._module_is_private(module):
                    continue  # already reported above
                for alias in node.names:
                    if _is_private_component(alias.name):
                        scope = self._symbol_scope(ctx, module)
                        if not self._allowed(ctx, scope):
                            yield self.finding(
                                ctx,
                                node,
                                f"private symbol '{alias.name}' of '{module}' "
                                f"imported outside '{scope}'; use the public "
                                "re-export instead",
                            )

    @staticmethod
    def _resolve(ctx: ModuleContext, node: ast.ImportFrom) -> str | None:
        if not node.level:
            return node.module
        base = ctx.module.split(".")
        if not ctx.is_package:
            base = base[:-1]
        drop = node.level - 1
        if drop:
            base = base[:-drop] if drop <= len(base) else []
        suffix = node.module.split(".") if node.module else []
        return ".".join(base + suffix) if (base or suffix) else None

    @staticmethod
    def _module_is_private(module: str) -> bool:
        return any(_is_private_component(p) for p in module.split("."))

    def _check_module(
        self, ctx: ModuleContext, node: ast.AST, module: str
    ) -> Iterator[Finding]:
        if not module.startswith("repro"):
            return
        parts = module.split(".")
        for i, part in enumerate(parts):
            if _is_private_component(part):
                owner = ".".join(parts[:i])
                if not self._allowed(ctx, owner):
                    yield self.finding(
                        ctx,
                        node,
                        f"private module '{module}' imported outside "
                        f"'{owner}'; use the package's public exports",
                    )
                return

    def _symbol_scope(self, ctx: ModuleContext, module: str) -> str:
        # a private name imported *from a package* is owned by that
        # package; imported from a plain module, by the module's package
        if module in ctx.known_packages:
            return module
        return module.rsplit(".", 1)[0] if "." in module else module

    @staticmethod
    def _allowed(ctx: ModuleContext, owner: str) -> bool:
        if not owner or not owner.startswith("repro"):
            return True
        return ctx.module == owner or ctx.module.startswith(owner + ".")


# ----------------------------------------------------------------------
# RPR002 — unsafe integer accumulation in the counting layers
# ----------------------------------------------------------------------

class UnsafeAccumulationRule(Rule):
    """Reductions without an explicit wide dtype in sparsela/ and core/.

    Butterfly counts grow like the square of wedge counts: Σ C(y, 2)
    exceeds 2³¹ on mid-size KONECT graphs (Shi & Shun PBFC; Wang et al.
    1812.00283), so every ``sum``/``cumsum`` on index-typed data must
    pin ``dtype=COUNT_DTYPE`` (or provide an ``out=`` of known dtype),
    and narrow integer dtypes are banned outright in these layers.
    """

    id = "RPR002"
    title = "integer reduction without explicit COUNT_DTYPE"

    SCOPES = ("repro.sparsela", "repro.core")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package(*self.SCOPES):
            return
        yield from self._check_scope(ctx, ctx.tree, safe=set())

    def _check_scope(
        self, ctx: ModuleContext, scope: ast.AST, safe: set[str]
    ) -> Iterator[Finding]:
        body = getattr(scope, "body", [])
        nested: list[ast.AST] = []
        for stmt in body:
            yield from self._scan_statement(ctx, stmt, safe, nested)
        for fn in nested:
            yield from self._check_scope(ctx, fn, safe=set(safe))

    #: compound statements whose bodies are scanned statement-by-statement
    #: (flow-insensitive: a name marked safe in one branch stays safe in
    #: siblings — branches in this codebase converge on the same dtype)
    _COMPOUND_BODIES = ("body", "orelse", "finalbody")

    def _scan_statement(
        self,
        ctx: ModuleContext,
        stmt: ast.stmt,
        safe: set[str],
        nested: list[ast.AST],
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                yield from self._scan_statement(ctx, sub, safe, nested)
            return
        if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
            # header expressions (test / iter / with-items) first …
            for expr in self._header_exprs(stmt):
                yield from self._scan_expr(ctx, expr, safe)
            if isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
                if self._expr_safe(stmt.iter, safe):
                    safe.add(stmt.target.id)
            # … then the bodies, statement by statement
            for attr in self._COMPOUND_BODIES:
                for sub in getattr(stmt, attr, []) or []:
                    yield from self._scan_statement(ctx, sub, safe, nested)
            for handler in getattr(stmt, "handlers", []) or []:
                for sub in handler.body:
                    yield from self._scan_statement(ctx, sub, safe, nested)
            return
        # leaf statement: findings first (based on the safe-set *before*
        # this statement's assignments take effect), then update the set
        yield from self._scan_expr(ctx, stmt, safe)
        for target_name, value in self._assignments(stmt):
            if self._expr_safe(value, safe):
                safe.add(target_name)
            else:
                safe.discard(target_name)

    @staticmethod
    def _header_exprs(stmt: ast.stmt) -> list[ast.expr]:
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, ast.For):
            return [stmt.iter]
        if isinstance(stmt, ast.With):
            return [item.context_expr for item in stmt.items]
        return []

    def _scan_expr(
        self, ctx: ModuleContext, root: ast.AST, safe: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                yield from self._check_reduction(ctx, node, safe)
            elif isinstance(node, ast.Attribute) and node.attr in _NARROW_DTYPE_ATTRS:
                base = node.value
                if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
                    yield self.finding(
                        ctx,
                        node,
                        f"narrow integer dtype np.{node.attr} in a counting "
                        "layer; counts/indices are COUNT_DTYPE/INDEX_DTYPE "
                        "(int64) by convention",
                    )

    @staticmethod
    def _assignments(stmt: ast.stmt) -> Iterator[tuple[str, ast.expr]]:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                yield stmt.target.id, stmt.value

    def _check_reduction(
        self, ctx: ModuleContext, node: ast.Call, safe: set[str]
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("sum", "cumsum"):
            return
        if _keyword(node, "dtype") is not None or _keyword(node, "out") is not None:
            return
        if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
            operand = node.args[0] if node.args else None  # np.sum(x) form
            spelled = f"np.{func.attr}(...)"
        else:
            operand = func.value  # x.sum() form
            spelled = f".{func.attr}()"
        if operand is None or self._expr_safe(operand, safe):
            return
        yield self.finding(
            ctx,
            node,
            f"{spelled} without dtype= on a possibly index-typed operand; "
            "accumulate in COUNT_DTYPE (int64) so eq. (4)/(18) counts stay "
            "exact past 2^31",
        )

    def _expr_safe(self, expr: ast.expr, safe: set[str]) -> bool:
        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in safe
        if isinstance(expr, (ast.Compare, ast.BoolOp)):
            return True  # boolean result
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.Not):
                return True
            return self._expr_safe(expr.operand, safe)
        if isinstance(expr, ast.BinOp):
            # numpy type promotion: int64 ∘ narrower → int64, so ONE wide
            # operand is enough to keep the whole expression wide
            return self._expr_safe(expr.left, safe) or self._expr_safe(
                expr.right, safe
            )
        if isinstance(expr, ast.Subscript):
            return self._expr_safe(expr.value, safe)
        if isinstance(expr, ast.IfExp):
            return self._expr_safe(expr.body, safe) and self._expr_safe(
                expr.orelse, safe
            )
        if isinstance(expr, ast.Call):
            return self._call_casts_wide(expr, safe)
        return False

    def _call_casts_wide(self, call: ast.Call, safe: set[str]) -> bool:
        func = call.func
        dtype_kw = _keyword(call, "dtype")
        if isinstance(func, ast.Attribute):
            if func.attr == "astype" and call.args:
                return self._dtype_expr_safe(call.args[0])
            if func.attr in (
                "asarray",
                "array",
                "zeros",
                "ones",
                "empty",
                "full",
                "arange",
                "ascontiguousarray",
            ):
                # np.zeros(n, dtype=COUNT_DTYPE) etc.
                if dtype_kw is not None:
                    return self._dtype_expr_safe(dtype_kw)
                # positional dtype for zeros/empty is rare; require kw
                return False
            if func.attr in ("sum", "cumsum", "dot", "prod") and dtype_kw is not None:
                return self._dtype_expr_safe(dtype_kw)
            if func.attr in ("copy", "reshape", "ravel", "flatten", "transpose"):
                # dtype-preserving passthroughs
                return self._expr_safe(func.value, safe)
        if isinstance(func, ast.Name):
            if func.id in ("int", "float", "len", "bool", "abs", "min", "max"):
                return True  # Python scalars are arbitrary precision
            if func.id in ("as_index_array", "as_count_array", "choose2"):
                return True  # repo-level coercers pin the wide dtype
        return False

    @staticmethod
    def _dtype_expr_safe(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in _SAFE_DTYPE_NAMES or expr.id in ("bool", "float", "int")
        if isinstance(expr, ast.Attribute):
            return expr.attr in _SAFE_DTYPE_ATTRS
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value in ("int64", "uint64", "float64", "bool")
        return False


# ----------------------------------------------------------------------
# RPR003 — observability hygiene
# ----------------------------------------------------------------------

class ObsHygieneRule(Rule):
    """span()/metric conventions from the repro.obs contract.

    Three checks: (a) ``obs.span(...)`` must be a ``with`` item — a span
    that is never ``__exit__``-ed records nothing and corrupts the
    parent chain; (b) metric/span names follow the registered
    ``layer.subsystem.what`` dotted-lowercase convention; (c) in the hot
    layers (sparsela/core/parallel/engine) a metric call whose value is
    *computed* (call, arithmetic, f-string) must sit under an
    ``if obs._enabled:`` guard, because argument evaluation happens even
    when recording is off and the disabled path must cost nothing
    (``REPRO_OBS=0`` is a true no-op); (d) the ``profile.`` name layer is
    reserved for the sampling profiler (:mod:`repro.obs.profile`) —
    hand-rolled metrics there would collide with sampler-derived series
    in ``stats``.
    """

    id = "RPR003"
    title = "observability hygiene violation"

    HOT_SCOPES = ("repro.sparsela", "repro.core", "repro.parallel", "repro.engine")

    #: Name layers only repro.obs itself may emit under (repro.obs is
    #: exempt from this rule wholesale, so any sighting is a violation).
    RESERVED_LAYERS = ("profile.",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_package("repro.obs", "repro.analysis"):
            return  # the implementation and this analyzer are exempt
        with_items = {
            id(item.context_expr)
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        hot = ctx.in_package(*self.HOT_SCOPES)
        yield from self._walk(ctx, ctx.tree, with_items, hot, guarded=False)

    def _walk(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        with_items: set[int],
        hot: bool,
        guarded: bool,
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded
            if isinstance(child, ast.If) and self._is_obs_guard(child.test):
                # the else-branch of a guard is *not* guarded, but no
                # code in this repo records metrics there; keep simple
                child_guarded = True
            if isinstance(child, ast.Call):
                kind = _obs_call(child)
                if kind is not None:
                    yield from self._check_call(
                        ctx, child, kind, with_items, hot, guarded
                    )
            yield from self._walk(ctx, child, with_items, hot, child_guarded)

    @staticmethod
    def _is_obs_guard(test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr in (
                "_enabled",
                "is_enabled",
            ):
                return True
            if isinstance(node, ast.Name) and node.id in ("_enabled", "collect"):
                return True
        return False

    def _check_call(
        self,
        ctx: ModuleContext,
        node: ast.Call,
        kind: str,
        with_items: set[int],
        hot: bool,
        guarded: bool,
    ) -> Iterator[Finding]:
        if kind == "span" and id(node) not in with_items:
            yield self.finding(
                ctx,
                node,
                "obs.span(...) used outside a 'with' statement; spans must "
                "be context-managed so exit status and duration are recorded",
            )
        if node.args:
            yield from self._check_name(ctx, node.args[0])
        if kind != "span" and hot and not guarded:
            values = list(node.args[1:]) + [
                kw.value for kw in node.keywords if kw.arg != "policy"
            ]
            computed = any(self._is_computed(v) for v in values)
            if computed or isinstance(
                node.args[0] if node.args else None, ast.JoinedStr
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"obs.{kind}(...) computes its arguments on the disabled "
                    "path; wrap the call in 'if obs._enabled:' (hot-layer "
                    "convention, see repro.obs docstring)",
                )

    @staticmethod
    def _is_computed(expr: ast.expr) -> bool:
        return isinstance(
            expr,
            (ast.Call, ast.BinOp, ast.JoinedStr, ast.ListComp, ast.GeneratorExp),
        )

    def _check_name(self, ctx: ModuleContext, arg: ast.expr) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _METRIC_NAME_RE.match(arg.value):
                yield self.finding(
                    ctx,
                    arg,
                    f"metric/span name {arg.value!r} violates the "
                    "'layer.subsystem.what' dotted-lowercase convention",
                )
            else:
                yield from self._check_reserved(ctx, arg, arg.value)
        elif isinstance(arg, ast.JoinedStr):
            head = arg.values[0] if arg.values else None
            if not (
                isinstance(head, ast.Constant)
                and isinstance(head.value, str)
                and _METRIC_PREFIX_RE.match(head.value)
            ):
                yield self.finding(
                    ctx,
                    arg,
                    "dynamic metric/span name must start with a static "
                    "'layer.' prefix (dotted-lowercase convention)",
                )
            elif isinstance(head, ast.Constant) and isinstance(head.value, str):
                yield from self._check_reserved(ctx, arg, head.value)
        elif isinstance(arg, ast.IfExp):
            yield from self._check_name(ctx, arg.body)
            yield from self._check_name(ctx, arg.orelse)

    def _check_reserved(
        self, ctx: ModuleContext, arg: ast.expr, name: str
    ) -> Iterator[Finding]:
        for layer in self.RESERVED_LAYERS:
            if name.startswith(layer):
                yield self.finding(
                    ctx,
                    arg,
                    f"metric/span name {name!r} is under the reserved "
                    f"{layer!r} layer, which belongs to the sampling "
                    "profiler (repro.obs.profile); pick a layer owned by "
                    "this module",
                )


# ----------------------------------------------------------------------
# RPR004 — engine-plan purity
# ----------------------------------------------------------------------

class EnginePurityRule(Rule):
    """Plans are frozen facts; member selection lives in repro.engine.

    Outside ``repro/engine/`` nothing may (a) assign to a plan's fields
    (including via ``object.__setattr__``) or (b) re-implement the
    smaller-side selection inline (comparing ``n_left``/``n_right`` to
    pick a member).  Section V's rule lives in one place,
    ``repro.engine.select_count_invariant``, and this rule keeps it that
    way.  Baselines
    and graph utilities are exempt: their side choices are algorithm
    semantics, not plan selection.
    """

    id = "RPR004"
    title = "engine-plan purity violation"

    SCOPES = ("repro.core", "repro.parallel", "repro.cli", "repro.bench")
    _PLAN_NAME = re.compile(r"^(the_)?plan$|_plan$")
    _SIDES = frozenset({"n_left", "n_right"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_package("repro.engine") or not ctx.in_package(*self.SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if self._is_plan_attribute(target):
                        yield self.finding(
                            ctx,
                            node,
                            "assignment to a Plan attribute outside "
                            "repro/engine; plans are frozen — build a new "
                            "one with plan.replace(...)",
                        )
            elif isinstance(node, ast.Call):
                func_name = _dotted(node.func)
                if (
                    func_name == "object.__setattr__"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and self._PLAN_NAME.search(node.args[0].id)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "object.__setattr__ on a Plan outside repro/engine; "
                        "plans are frozen — use plan.replace(...)",
                    )
            elif isinstance(node, ast.Compare):
                if self._is_side_comparison(node):
                    yield self.finding(
                        ctx,
                        node,
                        "inline smaller-side selection (n_left vs n_right) "
                        "outside repro/engine; call "
                        "repro.engine.select_count_invariant / plan(): the "
                        "Section V rule lives in repro.engine",
                    )

    def _is_plan_attribute(self, target: ast.expr) -> bool:
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and bool(self._PLAN_NAME.search(target.value.id))
        )

    def _is_side_comparison(self, node: ast.Compare) -> bool:
        sides = set()
        for expr in [node.left, *node.comparators]:
            name = expr.attr if isinstance(expr, ast.Attribute) else (
                expr.id if isinstance(expr, ast.Name) else None
            )
            if name in self._SIDES:
                sides.add(name)
        return len(sides) == 2


# ----------------------------------------------------------------------
# RPR006 — exception discipline
# ----------------------------------------------------------------------

class ExceptionDisciplineRule(Rule):
    """No bare/broad/swallowed exception handlers.

    A swallowed ``OSError`` in the wrong place turns a shared-memory
    publish failure into a silent wrong-shape fallback; the sanctioned
    executor-fallback sites (best-effort cleanup in repro/parallel) are
    each annotated ``# repro: noqa[RPR006] <reason>`` and listed in
    docs/analysis.md — everything else must handle, record, or re-raise.
    """

    id = "RPR006"
    title = "exception discipline violation"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions this site can actually handle",
                )
                continue
            names = self._caught_names(node.type)
            broad = {"Exception", "BaseException"} & names
            if broad and not self._reraises(node):
                yield self.finding(
                    ctx,
                    node,
                    f"'except {sorted(broad)[0]}' without re-raise; catch "
                    "the specific exceptions or re-raise after cleanup",
                )
            if self._is_pure_swallow(node):
                yield self.finding(
                    ctx,
                    node,
                    f"swallowed {'/'.join(sorted(names)) or 'exception'} "
                    "(handler body is only pass/continue); handle it, record "
                    "an obs metric, or annotate the sanctioned fallback site "
                    "with '# repro: noqa[RPR006] <reason>'",
                )

    @staticmethod
    def _caught_names(type_node: ast.expr) -> set[str]:
        names = set()
        nodes = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for node in nodes:
            dotted = _dotted(node)
            if dotted is not None:
                names.add(dotted.rsplit(".", 1)[-1])
        return names

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(n, ast.Raise) for n in ast.walk(handler))

    @staticmethod
    def _is_pure_swallow(handler: ast.ExceptHandler) -> bool:
        return all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in handler.body)


# ----------------------------------------------------------------------
# RPR013 — unused imports
# ----------------------------------------------------------------------

class UnusedImportRule(Rule):
    """A module-level import the module never references (ruff's F401).

    A package ``__init__.py`` re-exports by importing, a name listed in
    ``__all__`` is used by whoever star-imports it, and ``from __future__``
    binds no name, so none of them is reported.  A name inside a quoted
    annotation (``model: "ProjectModel"``) counts as a use.
    """

    id = "RPR013"
    title = "unused import"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_package:
            return
        used = self._all_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            for note in self._annotations(node):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used.update(_IDENTIFIER_RE.findall(note.value))
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Import):
                bound = [(a.asname or a.name.split(".")[0], a.name)
                         for a in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [(a.asname or a.name, a.name)
                         for a in stmt.names if a.name != "*"]
            else:
                continue
            for name, imported in bound:
                if name not in used:
                    yield self.finding(
                        ctx, stmt,
                        f"'{imported}' imported but never used; delete the "
                        "import or list the name in __all__",
                    )

    @staticmethod
    def _annotations(node: ast.AST) -> list:
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            return [node.annotation]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return [node.returns]
        return []

    @staticmethod
    def _all_names(tree: ast.Module) -> set[str]:
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in stmt.targets)
                    and isinstance(stmt.value, (ast.List, ast.Tuple))):
                return {e.value for e in stmt.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)}
        return set()


# ----------------------------------------------------------------------
# interprocedural rules (RPR009, RPR012) — pass 2 over the project model
# ----------------------------------------------------------------------

class ProjectRule(Rule):
    """A rule that needs the whole-program :class:`ProjectModel`.

    Project rules implement :meth:`check_project` instead of
    :meth:`check`; the engine runs them once per scan, after every file
    has contributed its facts, and routes their findings through the
    same per-file ``noqa`` tables as per-file rules.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, model: "ProjectModel") -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def project_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
        )


class ResourceLifecycleRule(ProjectRule):
    """RPR009 — tracked resources must be released on every path.

    Acquisitions of ``SharedMemory`` / ``SharedGraphBuffers.publish`` /
    ``attach_graph`` / ``open`` file handles must be one of: a ``with``
    item, released inside ``try/finally`` (or an ``except`` that
    re-raises), registered with ``weakref.finalize``/``atexit.register``,
    or transferred out of the function (returned, stored into a
    container, passed on).  Functions that *return* an unreleased
    resource pass the obligation to their callers: every call site of
    such an acquirer is itself an acquisition site, transitively.  The
    check is path-insensitive: a straight-line ``x.close()`` with no
    ``finally`` still leaks on the exception path and is flagged.
    """

    id = "RPR009"
    title = "resource acquired without release discipline"

    @staticmethod
    def acquirers(model: "ProjectModel") -> dict[str, str]:
        """``function id -> resource kind`` for functions that hand an
        unreleased tracked resource to their caller."""
        acquirers: dict[str, str] = {}
        for fid, (_mod, fn) in model.functions.items():
            if fn.returns_resource:
                kinds = [a.kind for a in fn.acquisitions]
                acquirers[fid] = kinds[0] if kinds else "resource"
        # transitive: ``f() { return make_shm() }`` is itself an acquirer;
        # repeat until a round adds none (the set only grows)
        changed = True
        while changed:
            changed = False
            for fid, (mod, fn) in model.functions.items():
                if fid in acquirers:
                    continue
                for callee in fn.returned_calls:
                    target = model.resolve_call(mod, fn, callee)
                    if target is not None and target in acquirers:
                        acquirers[fid] = acquirers[target]
                        changed = True
                        break
        return acquirers

    def check_project(self, model: "ProjectModel") -> Iterator[Finding]:
        acquirers = self.acquirers(model)
        for fid, (mod, fn) in model.functions.items():
            seen: set[tuple[int, int]] = set()
            for acq in fn.acquisitions:
                seen.add((acq.line, acq.col))
                if acq.protection == "none":
                    yield self.project_finding(
                        mod.path, acq.line, acq.col,
                        f"{acq.kind} acquired by {acq.callee}(...) has no "
                        "release on error paths; bind it in a `with`, "
                        "release in `try/finally`, or register a "
                        "finalizer (weakref.finalize/atexit.register)",
                    )
            for call in fn.calls:
                if (call.line, call.col) in seen:
                    continue
                target = model.resolve_call(mod, fn, call.callee)
                if target is None or target not in acquirers or target == fid:
                    continue
                if call.protection == "none":
                    yield self.project_finding(
                        mod.path, call.line, call.col,
                        f"call to {call.callee}(...) returns an unreleased "
                        f"{acquirers[target]}; the caller owns the release "
                        "— use `with`, `try/finally`, or a registered "
                        "finalizer",
                    )


class ApiSurfaceDriftRule(ProjectRule):
    """RPR012 — ``__all__`` exports and ``docs/api.md`` stay in sync.

    Two checks: (a) every name a ``repro`` package exports via a
    literal ``__all__`` (a ``*_LAZY`` element lists the package's lazy
    table) appears in ``docs/api.md``; (b) every
    ``## repro.<pkg>`` section header in the doc names a module that
    actually exists.  Both are skipped when the scan has no
    ``docs/api.md`` next to it (fixture scans).
    """

    id = "RPR012"
    title = "public API surface drifted from docs/api.md"

    _HEADER_RE = re.compile(r"^##\s+(repro(?:\.\w+)*)\s*$", re.MULTILINE)

    def check_project(self, model: "ProjectModel") -> Iterator[Finding]:
        doc = model.api_doc
        doc_words: set[str] | None = None
        if doc is not None:
            doc_words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", doc))
        for module in sorted(model.modules):
            mod = model.modules[module]
            if not module.startswith("repro"):
                continue
            exports = mod.exports
            if exports is None:
                continue
            if mod.is_package and doc_words is not None:
                missing = [n for n in exports if n not in doc_words]
                for name in missing:
                    yield self.project_finding(
                        mod.path, 1, 0,
                        f"'{module}' exports '{name}' in __all__ but "
                        "docs/api.md never mentions it; document the "
                        "symbol or stop exporting it",
                    )
        # reverse direction: headers in the doc must name real modules
        if doc is not None and "repro" in model.modules:
            doc_path = model.api_doc_path or "docs/api.md"
            for match in self._HEADER_RE.finditer(doc):
                module = match.group(1)
                if module not in model.modules:
                    line = doc[: match.start()].count("\n") + 1
                    yield self.project_finding(
                        doc_path, line, 0,
                        f"docs/api.md documents '{module}' but no such "
                        "module exists in the project",
                    )


#: Rule registry in catalog order.
RULES: tuple[Rule, ...] = (
    PrivateImportRule(),
    UnsafeAccumulationRule(),
    ObsHygieneRule(),
    EnginePurityRule(),
    ExceptionDisciplineRule(),
    ResourceLifecycleRule(),
    ApiSurfaceDriftRule(),
    UnusedImportRule(),
)

ALL_RULE_IDS: tuple[str, ...] = tuple(r.id for r in RULES)


def resolve_rules(rule_ids: Iterable[str] | None) -> tuple[Rule, ...]:
    """Select rules by id (case-insensitive); ``None`` selects all."""
    if rule_ids is None:
        return RULES
    wanted = {r.strip().upper() for r in rule_ids if r.strip()}
    unknown = wanted - set(ALL_RULE_IDS)
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {sorted(unknown)}; known: {list(ALL_RULE_IDS)}"
        )
    return tuple(r for r in RULES if r.id in wanted)
