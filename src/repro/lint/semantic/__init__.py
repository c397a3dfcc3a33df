"""Whole-program semantic analysis for the repro lint toolchain.

The per-file rules in :mod:`repro.lint.rules` see one module at a time;
this subpackage sees all of them at once.  A single :class:`Project` is
built per lint run -- every parsed module, a project-wide
:class:`~repro.lint.semantic.symbols.SymbolTable` (functions, classes,
inferred ``self.<attr>`` types) and a conservative
:class:`~repro.lint.semantic.callgraph.CallGraph` -- and each registered
:class:`ProjectRule` analyzes it.

Shipped pass
------------
THRD001 (:mod:`.races`)
    Shared-state race detector: unsynchronized writes reachable from
    executor tasks, ``Thread`` targets, observability callbacks, and the
    periodic NWS service entry points.  A lock dropped from such a path
    passes the test suite and the report diff, so this pass is its only
    check.

Writing a semantic pass
-----------------------
1.  **Subclass** :class:`ProjectRule` (not :class:`~repro.lint.registry.Rule`)
    and decorate it with :func:`~repro.lint.registry.register`.  Give it a
    fresh ``rule_id``, a one-line ``title``, and a ``rationale`` that says
    why the per-file view is insufficient -- if a per-file rule could
    catch it, write one of those instead; they are cheaper and simpler.

2.  **Implement** ``check_project(self, project)`` as a generator of
    :class:`~repro.lint.findings.Finding` objects.  The :class:`Project`
    argument gives you:

    * ``project.symbols.functions`` -- qualname ->
      :class:`~repro.lint.semantic.symbols.FunctionInfo` for every
      function, method and nested function;
    * ``project.callgraph.sites[qualname]`` -- each call expression in
      that function with its resolution (``callee`` when it is a project
      function, ``external`` when it expands to an imported dotted name,
      neither when unknown);
    * ``project.callgraph.callees[qualname]`` -- the resolved project
      functions it calls, for reachability questions;
    * ``project.finding_for(info, node, rule_id, message)`` to emit a
      correctly-located finding.

3.  **Stay conservative.**  The call graph only records edges it can
    prove (see :mod:`.callgraph`); treat an unresolved call as "anything
    may happen" and *do not* emit a finding for it.  A semantic pass
    earns its keep with true positives the per-file rules cannot see,
    and loses it with one false positive the author cannot silence
    except by ``# lint: ignore[...]``.

4.  **Test with** :func:`project_from_sources`, which builds a project
    from ``{dotted module name: source}`` without touching disk.  A pass
    earns its place only with a defect no other gate (the tests, the
    report artifact diff, the runtime contracts) catches; pin that
    defect in its fixture test.

5.  **Document** the rule in the README rule catalog.  Suppressions,
    ``--select``/``--ignore``, reporters and the lint cache all work for
    project rules with no extra code: the runner applies them to the
    findings after ``check_project`` returns.
"""

from repro.lint.semantic.callgraph import CallGraph, CallSite
from repro.lint.semantic.project import (
    Project,
    ProjectRule,
    build_project,
    project_from_sources,
)
from repro.lint.semantic.symbols import ClassInfo, FunctionInfo, SymbolTable

# Importing the pass module registers its rule.
from repro.lint.semantic.races import SharedStateRaceRule, thread_entry_roots

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "Project",
    "ProjectRule",
    "SharedStateRaceRule",
    "SymbolTable",
    "build_project",
    "project_from_sources",
    "thread_entry_roots",
]
