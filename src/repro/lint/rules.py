"""The domain rules.

Each rule guards an invariant the test suite cannot see directly but the
paper's results depend on:

``PROTO001``
    Every :class:`repro.core.forecasters.Forecaster` subclass is a cheap
    streaming estimator: it provides ``update`` and ``forecast``,
    ``forecast`` takes no positional arguments (the paper's Section 3
    protocol), and declares ``__slots__`` so per-measurement allocation
    stays flat across a battery of dozens of instances.
``EXC001``
    No bare ``except`` or swallowed exceptions in the service layer
    (``repro.nws``, ``repro.live``): a sensor that eats its own errors
    reports stale availability instead of dying visibly.
``FAULT001``
    Resilience discipline: retry loops in the service layer and runner
    (``repro.nws``, ``repro.runner``) must go through
    :class:`repro.faults.RetryPolicy`.  A broad ``except``-``continue``
    inside a loop retries forever and hides the failure; a raw
    ``time.sleep`` in a loop hand-rolls backoff without the seeded
    jitter or the injectable (deterministic) sleep.
``OBS002``
    Metric naming and inventory: literal metric names passed to
    ``.counter`` / ``.gauge`` / ``.histogram`` must follow the
    ``repro_<layer>_<name>`` scheme (counters end in ``_total``,
    gauges and histograms do not) and must be listed in the metrics
    inventory of the :mod:`repro.obs` package docstring, so the
    inventory stays the single complete catalogue of what a running
    system exports.
``DUR001``
    Durability discipline: persistence writes inside :mod:`repro.nws`
    must go through :mod:`repro.nws.durable` (``atomic_replace_bytes`` /
    ``atomic_replace_json`` for whole files, ``JournalWriter`` for
    appends).  A bare ``open(..., "w")`` / ``Path.write_text`` leaves a
    torn file when the process dies mid-write, which breaks the
    byte-identical restore guarantee.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.astutils import dotted as _dotted
from repro.lint.astutils import import_aliases as _import_aliases
from repro.lint.astutils import resolve as _resolve
from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, register

__all__ = [
    "ForecasterProtocolRule",
    "SwallowedErrorRule",
    "ResilienceRule",
    "MetricInventoryRule",
    "DurabilityRule",
]


# --------------------------------------------------------------------------
# PROTO001 -- forecaster protocol
# --------------------------------------------------------------------------

def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_abstract(func: ast.FunctionDef) -> bool:
    for deco in func.decorator_list:
        name = deco.id if isinstance(deco, ast.Name) else getattr(deco, "attr", None)
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _own_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


@register
class ForecasterProtocolRule(Rule):
    rule_id = "PROTO001"
    title = "Forecaster subclasses honour the update/forecast protocol"
    rationale = (
        "the battery calls update() then forecast() once per measurement "
        "for every member; a missing method, a forecast that needs "
        "arguments, or __dict__-bearing instances break or bloat the "
        "whole mixture"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        classes = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }

        def is_forecaster(cls: ast.ClassDef, seen: frozenset[str]) -> bool:
            for base in _base_names(cls):
                if base == "Forecaster":
                    return True
                if base in classes and base not in seen:
                    if is_forecaster(classes[base], seen | {base}):
                        return True
            return False

        def chain(cls: ast.ClassDef) -> list[ast.ClassDef]:
            """The class plus its in-module ancestors (excluding Forecaster)."""
            out, todo, seen = [], [cls], set()
            while todo:
                current = todo.pop(0)
                if current.name in seen or current.name == "Forecaster":
                    continue
                seen.add(current.name)
                out.append(current)
                todo.extend(
                    classes[base]
                    for base in _base_names(current)
                    if base in classes
                )
            return out

        for cls in classes.values():
            if cls.name == "Forecaster" or not is_forecaster(cls, frozenset()):
                continue
            provided: set[str] = set()
            for ancestor in chain(cls):
                provided.update(
                    name
                    for name, func in _own_methods(ancestor).items()
                    if not _is_abstract(func)
                )
            for required in ("update", "forecast"):
                if required not in provided:
                    yield ctx.finding(
                        cls,
                        self.rule_id,
                        f"Forecaster subclass {cls.name!r} does not provide "
                        f"{required}(); the battery protocol requires it",
                    )
            own = _own_methods(cls)
            forecast = own.get("forecast")
            if forecast is not None and not _is_abstract(forecast):
                args = forecast.args
                extra = len(args.posonlyargs) + len(args.args) - 1
                if extra > 0 or args.vararg is not None:
                    yield ctx.finding(
                        forecast,
                        self.rule_id,
                        f"{cls.name}.forecast() must take no positional "
                        "arguments: it predicts the next frame from "
                        "internal state only",
                    )
            if not _declares_slots(cls):
                yield ctx.finding(
                    cls,
                    self.rule_id,
                    f"Forecaster subclass {cls.name!r} must declare "
                    "__slots__; batteries hold dozens of instances on the "
                    "per-measurement hot path",
                )


# --------------------------------------------------------------------------
# EXC001 -- bare except / swallowed errors in the service layer
# --------------------------------------------------------------------------

@register
class SwallowedErrorRule(Rule):
    rule_id = "EXC001"
    title = "no bare except or swallowed exceptions in services"
    rationale = (
        "a sensor that eats its own errors keeps publishing stale "
        "availability; failures must propagate or be logged deliberately"
    )
    scope = ("repro.nws", "repro.live")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "bare except catches SystemExit/KeyboardInterrupt too; "
                    "name the exception type",
                )
            swallowed = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if swallowed:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "exception handler swallows the error; re-raise, "
                    "return a sentinel, or record the failure",
                )


# --------------------------------------------------------------------------
# FAULT001 -- resilience discipline (retry loops use RetryPolicy)
# --------------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}

#: Constructs whose interiors belong to a different scope: a ``continue``
#: or ``time.sleep`` inside them is not part of the enclosing loop's own
#: retry logic.
_WALK_BOUNDARIES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
)


def _pruned_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``node``, not descending into nested loops/functions."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, _WALK_BOUNDARIES):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for node in types:
        name = _dotted(node)
        if name is not None and name.split(".")[-1] in _BROAD_EXCEPTIONS:
            return True
    return False


@register
class ResilienceRule(Rule):
    rule_id = "FAULT001"
    title = "retry loops go through repro.faults.RetryPolicy"
    rationale = (
        "a broad except-continue inside a loop retries forever and hides "
        "the failure; raw time.sleep hand-rolls backoff without seeded "
        "jitter or the injectable (deterministic) sleep -- RetryPolicy "
        "bounds attempts, records repro_faults_retries_total and stays "
        "reproducible"
    )
    scope = ("repro.nws", "repro.runner")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in _pruned_walk(loop):
                if isinstance(node, ast.ExceptHandler):
                    if not _catches_broadly(node):
                        continue
                    retries = any(
                        isinstance(inner, ast.Continue)
                        for inner in _pruned_walk(node)
                    ) or all(
                        isinstance(stmt, ast.Pass)
                        or (
                            isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant)
                        )
                        for stmt in node.body
                    )
                    if retries:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            "broad except swallowed inside a loop retries "
                            "forever and hides the failure; bound attempts "
                            "with repro.faults.RetryPolicy.call instead",
                        )
                elif isinstance(node, ast.Call):
                    dotted = _dotted(node.func)
                    if dotted is None:
                        continue
                    if _resolve(dotted, aliases) == "time.sleep":
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            "time.sleep() in a loop hand-rolls retry "
                            "backoff; use repro.faults.RetryPolicy (seeded "
                            "jitter, injectable sleep) instead",
                        )


# --------------------------------------------------------------------------
# OBS002 -- metric naming and inventory
# --------------------------------------------------------------------------

#: Registry factory methods whose first argument is a metric name.
_METRIC_FACTORIES = ("counter", "gauge", "histogram")

#: repro_<layer>_<name>: at least three lowercase segments.
_METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9]+(?:_[a-z0-9]+)+$")

_INVENTORY_CACHE: frozenset[str] | None = None


def _metric_inventory() -> frozenset[str]:
    """Every metric name listed in the :mod:`repro.obs` docstring.

    Parsed lazily (and once per process): the package docstring is the
    human-maintained catalogue this rule holds code to.
    """
    global _INVENTORY_CACHE
    if _INVENTORY_CACHE is None:
        import repro.obs

        _INVENTORY_CACHE = frozenset(
            re.findall(r"repro_[a-z0-9_]+", repro.obs.__doc__ or "")
        )
    return _INVENTORY_CACHE


@register
class MetricInventoryRule(Rule):
    rule_id = "OBS002"
    title = "metric names follow repro_<layer>_<name> and are inventoried"
    rationale = (
        "an exporter full of ad-hoc names cannot be read back against the "
        "paper; the repro.obs docstring inventory is the catalogue of "
        "what a running system emits, and a metric missing from it is "
        "invisible to anyone who trusts the docs"
    )
    scope = ("repro",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _METRIC_FACTORIES
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant) and isinstance(first.value, str)
            ):
                continue
            name = first.value
            if not _METRIC_NAME_RE.match(name):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"metric name {name!r} does not follow "
                    "repro_<layer>_<name> (lowercase, underscore-separated, "
                    "at least three segments)",
                )
                continue
            if func.attr == "counter" and not name.endswith("_total"):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"counter {name!r} must end in '_total' "
                    "(Prometheus counter convention)",
                )
            elif func.attr != "counter" and name.endswith("_total"):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"{func.attr} {name!r} must not end in '_total'; the "
                    "suffix is reserved for counters",
                )
            if name not in _metric_inventory():
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"metric {name!r} is missing from the metrics inventory "
                    "in the repro.obs package docstring; document it there",
                )


# --------------------------------------------------------------------------
# DUR001 -- durability discipline (atomic persistence writes)
# --------------------------------------------------------------------------

#: The one module allowed to open files for writing: it owns the
#: temp-file + fsync + ``os.replace`` discipline everything else reuses.
_DURABLE_MODULE = "repro.nws.durable"

#: Any of these in an ``open`` mode string means the call can write.
_WRITE_MODE_CHARS = frozenset("wxa+")


def _literal_write_mode(call: ast.Call, position: int) -> str | None:
    """The literal write-capable mode of an ``open``-style call, if any.

    ``position`` is where the mode argument sits positionally (1 for the
    builtin ``open(file, mode)``, 0 for ``Path.open(mode)``); a ``mode=``
    keyword wins over it.  Non-literal modes are ignored -- the rule only
    flags what it can prove.
    """
    mode = None
    if len(call.args) > position:
        node = call.args[position]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            mode = node.value
    for keyword in call.keywords:
        if (
            keyword.arg == "mode"
            and isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, str)
        ):
            mode = keyword.value.value
    if mode is not None and _WRITE_MODE_CHARS & set(mode):
        return mode
    return None


@register
class DurabilityRule(Rule):
    rule_id = "DUR001"
    title = "persistence writes go through repro.nws.durable"
    rationale = (
        "a bare write tears the file if the process dies mid-write; the "
        "atomic helpers (temp file + fsync + os.replace) and JournalWriter "
        "are what make restored state byte-identical to an uninterrupted "
        "run"
    )
    scope = ("repro.nws",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module == _DURABLE_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if dotted in ("open", "io.open", "os.fdopen"):
                mode = _literal_write_mode(node, 1)
                if mode is not None:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"open(..., {mode!r}) can tear on crash; use "
                        "repro.nws.durable.atomic_replace_bytes/_json "
                        "(or JournalWriter for appends)",
                    )
            elif dotted.endswith(".open") and "." in dotted:
                mode = _literal_write_mode(node, 0)
                if mode is not None:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f".open({mode!r}) can tear on crash; use "
                        "repro.nws.durable.atomic_replace_bytes/_json "
                        "(or JournalWriter for appends)",
                    )
            elif dotted.endswith((".write_text", ".write_bytes")):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"{dotted.rsplit('.', 1)[1]}() rewrites the file "
                    "in place and can tear on crash; use "
                    "repro.nws.durable.atomic_replace_bytes/_json",
                )
