"""Project-wide symbol table: every function, method and class by qualname.

The table is the ground layer of the semantic analyzer: one walk over all
parsed modules indexes

* module-level functions (``repro.sim.engine.push``),
* classes and their methods (``repro.nws.memory.MemoryStore.publish``),
* nested functions (``repro.obs.instrument.observe_kernel._collect``),
* per-class *attribute types*: ``self.memory = memory`` where the
  ``memory`` parameter is annotated ``MemoryStore`` records that
  ``SensorHost.memory`` is a ``MemoryStore`` -- which is what lets the
  call-graph layer resolve ``self.memory.publish(...)`` across modules.

Everything is plain data over the already-parsed ASTs; nothing here is
imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.astutils import dotted, import_aliases, resolve
from repro.lint.registry import ModuleContext

__all__ = ["ClassInfo", "FunctionInfo", "SymbolTable"]


@dataclass
class FunctionInfo:
    """One function or method definition, addressable by qualname."""

    qualname: str
    module: str
    name: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None  #: owning class qualname, or None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition with its methods and inferred attribute types."""

    qualname: str
    module: str
    name: str
    path: str
    node: ast.ClassDef
    base_names: tuple[str, ...] = ()  #: resolved dotted base names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname, inferred from annotated
    #: constructor params and direct constructor calls.
    attr_types: dict[str, str] = field(default_factory=dict)


def _annotation_name(node: ast.AST | None) -> str | None:
    """The dotted name of an annotation, unwrapping ``X | None`` and quotes."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the head token of "MemoryStore | None".
        return node.value.split("|")[0].strip() or None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_name(node.left) or _annotation_name(node.right)
    if isinstance(node, ast.Subscript):  # Optional[X] / list[X] -> unwrap head
        base = dotted(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_name(node.slice)
        return None
    return dotted(node)


class SymbolTable:
    """Index of every definition across the project's modules.

    Attributes
    ----------
    functions:
        qualname -> :class:`FunctionInfo` for every function/method/nested
        function in every module.
    classes:
        qualname -> :class:`ClassInfo`.
    aliases:
        module name -> its import-alias map (local name -> dotted name).
    """

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, dict[str, str]] = {}
        #: bare class name -> qualnames (for base-class linking).
        self._class_names: dict[str, list[str]] = {}

    # ------------------------------------------------------------- building

    @classmethod
    def build(cls, contexts: list[ModuleContext]) -> "SymbolTable":
        table = cls()
        for ctx in contexts:
            table._index_module(ctx)
        for info in table.classes.values():
            table._infer_attr_types(info)
        return table

    def _index_module(self, ctx: ModuleContext) -> None:
        module = ctx.module or ctx.path
        self.aliases[module] = import_aliases(ctx.tree)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, module, stmt, prefix=module)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(ctx, module, stmt)

    def _index_function(
        self,
        ctx: ModuleContext,
        module: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        class_name: str | None = None,
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=module,
            name=node.name,
            path=ctx.path,
            node=node,
            class_name=class_name,
        )
        if class_name is not None:
            self.classes[class_name].methods[node.name] = self.functions[qualname]
        # Nested defs are functions in their own right (callback targets).
        for inner in node.body:
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, module, inner, prefix=qualname)

    def _index_class(self, ctx: ModuleContext, module: str, node: ast.ClassDef) -> None:
        qualname = f"{module}.{node.name}"
        aliases = self.aliases[module]
        bases = tuple(
            resolve(name, aliases)
            for name in (dotted(base) for base in node.bases)
            if name is not None
        )
        info = ClassInfo(
            qualname=qualname,
            module=module,
            name=node.name,
            path=ctx.path,
            node=node,
            base_names=bases,
        )
        self.classes[qualname] = info
        self._class_names.setdefault(node.name, []).append(qualname)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(
                    ctx, module, stmt, prefix=qualname, class_name=qualname
                )

    # -------------------------------------------------------------- lookup

    def class_named(self, name: str, *, module: str | None = None) -> ClassInfo | None:
        """Resolve a (possibly dotted) class name to a project class.

        Tries, in order: an exact qualname, the name local to ``module``,
        the module's import aliases, and finally a *unique* bare-name
        match across the project (ambiguous bare names resolve to None --
        the passes would rather miss than guess).
        """
        if name in self.classes:
            return self.classes[name]
        if module is not None:
            local = f"{module}.{name}"
            if local in self.classes:
                return self.classes[local]
            aliased = resolve(name, self.aliases.get(module, {}))
            if aliased in self.classes:
                return self.classes[aliased]
        bare = name.split(".")[-1]
        candidates = self._class_names.get(bare, [])
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def method_on(self, cls: ClassInfo, method: str) -> FunctionInfo | None:
        """``cls``'s own or inherited (project-visible) method."""
        seen: set[str] = set()
        todo = [cls]
        while todo:
            current = todo.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            for base in current.base_names:
                base_info = self.class_named(base, module=current.module)
                if base_info is not None:
                    todo.append(base_info)
        return None

    def _infer_attr_types(self, info: ClassInfo) -> None:
        """Fill ``info.attr_types`` from constructor parameter annotations,
        ``self.x: T = ...`` annotations, and ``self.x = ClassName(...)``."""
        for method in info.methods.values():
            node = method.node
            ann_by_param: dict[str, str | None] = {}
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
                ann_by_param[arg.arg] = _annotation_name(arg.annotation)
            for stmt in ast.walk(node):
                target: ast.AST | None = None
                value: ast.AST | None = None
                declared: str | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                    declared = _annotation_name(stmt.annotation)
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                attr = target.attr
                resolved: ClassInfo | None = None
                if declared is not None:
                    resolved = self.class_named(declared, module=info.module)
                if resolved is None and isinstance(value, ast.Name):
                    ann = ann_by_param.get(value.id)
                    if ann is not None:
                        resolved = self.class_named(ann, module=info.module)
                if resolved is None and isinstance(value, ast.Call):
                    callee = dotted(value.func)
                    if callee is not None:
                        resolved = self.class_named(callee, module=info.module)
                if resolved is not None and attr not in info.attr_types:
                    info.attr_types[attr] = resolved.qualname
