"""Finding record produced by lint rules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Attributes
    ----------
    path:
        File the violation was found in (as given to the runner).
    line / col:
        1-based line and 0-based column of the offending node.
    rule_id:
        Identifier of the rule that fired (e.g. ``DUR001``).
    message:
        Human-readable description, including the fix direction.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``path:line:col RULE message`` -- the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
