"""Rule interface and registry.

Every rule is a subclass of :class:`Rule` registered via the
:func:`register` decorator.  A rule sees one parsed module at a time
(:class:`ModuleContext`) and yields :class:`~repro.lint.findings.Finding`
records; the runner handles path walking, scoping, and suppression.

Rules may be *scoped* to dotted package prefixes (``scope``): the
swallowed-error rule, for example, only applies inside ``repro.nws`` and
``repro.live``, the service layers whose failures must stay visible.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.findings import Finding

__all__ = ["ModuleContext", "Rule", "register", "all_rules", "rule_ids"]


@dataclass(frozen=True)
class ModuleContext:
    """One parsed source file handed to each rule.

    Attributes
    ----------
    path:
        File path as given to the runner (used in findings).
    module:
        Dotted module name (``repro.sim.engine``) resolved from the
        package layout, or ``""`` when the file is not inside a package.
    tree:
        Parsed ``ast.Module``.
    source_lines:
        The file's source split into lines (1-based access via
        ``source_lines[line - 1]``), used for suppression comments.
    """

    path: str
    module: str
    tree: ast.Module
    source_lines: tuple[str, ...] = field(repr=False, default=())

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )


class Rule(ABC):
    """A single lint rule.

    Class attributes
    ----------------
    rule_id:
        Stable identifier used in reports and ``# lint: ignore[...]``.
    title:
        Short name shown in ``--help`` style listings.
    rationale:
        Why the rule exists (one sentence, shown in the README table).
    scope:
        Dotted module prefixes the rule applies to; empty means every
        module, including files outside any package.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    scope: tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs on the given dotted module name."""
        if not self.scope:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    @abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its ``rule_id``."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Registered rules, sorted by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    return sorted(_REGISTRY)
