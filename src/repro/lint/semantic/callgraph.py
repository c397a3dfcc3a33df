"""Project call graph: resolved call sites between project functions.

Resolution is deliberately conservative -- a call site resolves to a
project function only when the evidence is unambiguous:

* bare names through enclosing scopes, module-level defs and
  ``from x import y`` aliases,
* ``ClassName(...)`` constructor calls (edge into ``__init__``),
* ``self.method(...)`` through the receiver's class and project-visible
  bases,
* ``self.attr.method(...)`` through the class's inferred attribute types
  (see :class:`~repro.lint.semantic.symbols.SymbolTable`),
* ``local.method(...)`` where ``local`` was assigned a project-class
  instance (or is a parameter annotated with one) in the same function,
* ``module.alias.func(...)`` through the import-alias map.

Anything else resolves to its expanded dotted name (``external``) or to
nothing.  Unresolved calls never produce findings; the passes built on
this graph would rather miss than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.astutils import dotted, resolve
from repro.lint.semantic.symbols import (
    ClassInfo,
    FunctionInfo,
    SymbolTable,
    _annotation_name,
)

__all__ = ["CallGraph", "CallSite"]

_SCOPE_BOUNDARIES = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_statements(node: ast.AST):
    """Descendants of ``node`` that belong to its own scope.

    Nested ``def``s are separate functions (they are indexed on their
    own); lambdas stay inline -- their bodies execute in this scope.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, _SCOPE_BOUNDARIES):
            continue
        stack.extend(ast.iter_child_nodes(child))


@dataclass
class CallSite:
    """One call expression, with whatever resolution succeeded."""

    caller: FunctionInfo
    node: ast.Call
    callee: FunctionInfo | None = None  #: resolved project function
    callee_class: ClassInfo | None = None  #: set for ``ClassName(...)`` calls
    external: str | None = None  #: expanded dotted name when not project-local


class CallGraph:
    """Call sites per function plus the caller->callee adjacency."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.sites: dict[str, list[CallSite]] = {}
        self.callees: dict[str, set[str]] = {}
        self._local_types: dict[str, dict[str, ClassInfo]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        for info in table.functions.values():
            graph._index_function(info)
        return graph

    # ------------------------------------------------------------ building

    def _index_function(self, info: FunctionInfo) -> None:
        sites: list[CallSite] = []
        for node in own_statements(info.node):
            if isinstance(node, ast.Call):
                sites.append(self._resolve_call(info, node))
        self.sites[info.qualname] = sites
        out = self.callees.setdefault(info.qualname, set())
        for site in sites:
            target = site.callee
            if target is None and site.callee_class is not None:
                target = self.table.method_on(site.callee_class, "__init__")
            if target is not None:
                out.add(target.qualname)

    def local_types(self, info: FunctionInfo) -> dict[str, ClassInfo]:
        """Local name -> project class, from annotations and assignments."""
        cached = self._local_types.get(info.qualname)
        if cached is not None:
            return cached
        env: dict[str, ClassInfo] = {}
        node = info.node
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
            ann = _annotation_name(arg.annotation)
            if ann is not None:
                resolved = self.table.class_named(ann, module=info.module)
                if resolved is not None:
                    env[arg.arg] = resolved
        owner = self._owner_class(info)
        for stmt in own_statements(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if isinstance(value, ast.Call):
                callee = dotted(value.func)
                if callee is not None:
                    resolved = self.table.class_named(callee, module=info.module)
                    if resolved is not None:
                        env[target.id] = resolved
            elif (
                owner is not None
                and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                attr_type = owner.attr_types.get(value.attr)
                if attr_type is not None and attr_type in self.table.classes:
                    env[target.id] = self.table.classes[attr_type]
        self._local_types[info.qualname] = env
        return env

    def _owner_class(self, info: FunctionInfo) -> ClassInfo | None:
        if info.class_name is None:
            return None
        return self.table.classes.get(info.class_name)

    # ---------------------------------------------------------- resolution

    def _resolve_call(self, caller: FunctionInfo, node: ast.Call) -> CallSite:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(caller, node, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(caller, node, func)
        return CallSite(caller, node)

    def _resolve_name_call(
        self, caller: FunctionInfo, node: ast.Call, name: str
    ) -> CallSite:
        target = self.resolve_name(caller, name)
        if isinstance(target, FunctionInfo):
            return CallSite(caller, node, callee=target)
        if isinstance(target, ClassInfo):
            return CallSite(
                caller,
                node,
                callee=self.table.method_on(target, "__init__"),
                callee_class=target,
            )
        external = resolve(name, self.table.aliases.get(caller.module, {}))
        return CallSite(caller, node, external=external)

    def resolve_name(
        self, caller: FunctionInfo, name: str
    ) -> FunctionInfo | ClassInfo | None:
        """A bare name, through enclosing scopes, the module, and imports."""
        # Enclosing-scope nested functions: module.f.g sees module.f.g.name,
        # module.f.name, module.name.
        prefix = caller.qualname
        while prefix:
            candidate = f"{prefix}.{name}"
            if candidate in self.table.functions:
                return self.table.functions[candidate]
            if candidate in self.table.classes:
                return self.table.classes[candidate]
            prefix = prefix.rpartition(".")[0]
            if prefix == caller.module:
                break
        module_level = f"{caller.module}.{name}"
        if module_level in self.table.functions:
            return self.table.functions[module_level]
        if module_level in self.table.classes:
            return self.table.classes[module_level]
        aliased = resolve(name, self.table.aliases.get(caller.module, {}))
        if aliased in self.table.functions:
            return self.table.functions[aliased]
        if aliased in self.table.classes:
            return self.table.classes[aliased]
        return None

    def _resolve_attribute_call(
        self, caller: FunctionInfo, node: ast.Call, func: ast.Attribute
    ) -> CallSite:
        chain = dotted(func)
        if chain is None:
            return CallSite(caller, node)
        parts = chain.split(".")
        owner = self._owner_class(caller)
        if parts[0] == "self" and owner is not None:
            if len(parts) == 2:
                method = self.table.method_on(owner, parts[1])
                return CallSite(caller, node, callee=method)
            if len(parts) == 3:
                attr_type = owner.attr_types.get(parts[1])
                if attr_type is not None and attr_type in self.table.classes:
                    method = self.table.method_on(
                        self.table.classes[attr_type], parts[2]
                    )
                    return CallSite(caller, node, callee=method)
            return CallSite(caller, node)
        if len(parts) == 2:
            local = self.local_types(caller).get(parts[0])
            if local is not None:
                method = self.table.method_on(local, parts[1])
                if method is not None:
                    return CallSite(caller, node, callee=method)
        full = resolve(chain, self.table.aliases.get(caller.module, {}))
        if full in self.table.functions:
            return CallSite(caller, node, callee=self.table.functions[full])
        if full in self.table.classes:
            cls = self.table.classes[full]
            return CallSite(
                caller,
                node,
                callee=self.table.method_on(cls, "__init__"),
                callee_class=cls,
            )
        return CallSite(caller, node, external=full)

    def resolve_reference(
        self, caller: FunctionInfo, node: ast.AST
    ) -> FunctionInfo | None:
        """A *function reference* (not a call): callback/submit arguments.

        ``pool.submit(_simulate_job, ...)`` passes a Name;
        ``registry.register_callback(self._collect_telemetry)`` passes a
        bound-method Attribute.  Returns the referenced project function.
        """
        if isinstance(node, ast.Name):
            target = self.resolve_name(caller, node.id)
            return target if isinstance(target, FunctionInfo) else None
        if isinstance(node, ast.Attribute):
            chain = dotted(node)
            owner = self._owner_class(caller)
            if chain is not None:
                parts = chain.split(".")
                if parts[0] == "self" and owner is not None and len(parts) == 2:
                    return self.table.method_on(owner, parts[1])
                full = resolve(chain, self.table.aliases.get(caller.module, {}))
                return self.table.functions.get(full)
        return None
