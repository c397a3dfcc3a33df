"""The whole-program analysis unit: parsed modules + symbols + call graph.

A :class:`Project` is built once per lint run from every successfully
parsed :class:`~repro.lint.registry.ModuleContext` and shared by all
registered :class:`ProjectRule` passes, so the symbol table and call
graph are paid for once regardless of how many semantic rules run.
"""

from __future__ import annotations

import ast
from abc import abstractmethod
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule
from repro.lint.semantic.callgraph import CallGraph
from repro.lint.semantic.symbols import FunctionInfo, SymbolTable

__all__ = ["Project", "ProjectRule", "build_project", "project_from_sources"]


class Project:
    """Everything a semantic pass needs, built once and shared."""

    def __init__(self, contexts: list[ModuleContext]):
        self.contexts = list(contexts)
        self.modules: dict[str, ModuleContext] = {
            (ctx.module or ctx.path): ctx for ctx in contexts
        }
        self.symbols = SymbolTable.build(self.contexts)
        self.callgraph = CallGraph.build(self.symbols)

    def finding_for(
        self, info: FunctionInfo, node: ast.AST, rule_id: str, message: str
    ) -> Finding:
        """A finding located inside ``info``'s source file."""
        return Finding(
            path=info.path,
            line=getattr(node, "lineno", info.lineno),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that analyzes the whole project instead of one file.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`check` hook is a no-op so project rules can live in the same
    registry, be selected/ignored by id, and honour the same
    ``# lint: ignore[...]`` suppressions (applied by the runner to the
    file each finding lands in).
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    @abstractmethod
    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield findings across the whole project."""


def build_project(contexts: list[ModuleContext]) -> Project:
    return Project(contexts)


def project_from_sources(sources: dict[str, str]) -> Project:
    """Build a project from ``{dotted module name: source}`` (test fixtures).

    Paths are synthesized from the module names (``repro.sim.engine`` ->
    ``repro/sim/engine.py``); parse errors raise -- fixtures are expected
    to be valid Python.
    """
    contexts = []
    for module, source in sources.items():
        path = module.replace(".", "/") + ".py"
        contexts.append(
            ModuleContext(
                path=path,
                module=module,
                tree=ast.parse(source),
                source_lines=tuple(source.splitlines()),
            )
        )
    return Project(contexts)
