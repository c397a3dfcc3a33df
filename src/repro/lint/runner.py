"""Lint driver: walk paths, parse, run rules, apply suppressions.

Suppression syntax
------------------
A finding is suppressed by a comment on its own line::

    path.write_text(s)       # noqa-like: "lint: ignore[DUR001] -- reason"
    value = risky()          # "lint: ignore" silences every rule

Suppression comments are extracted with :mod:`tokenize`, so the pattern
only counts when it appears in a real comment -- the examples above (and
in docstrings anywhere) are inert.  Suppressed findings are counted (and
reported in JSON) but do not affect the exit code; unknown rule ids
inside ``ignore[...]`` are simply inert.

Unused suppressions
-------------------
On a full-registry run (no ``--select``/``--ignore``), a suppression
comment that silenced nothing is itself reported under the pseudo-rule
``LINT001`` -- stale suppressions hide future regressions.  The check is
skipped when the rule set is narrowed, because "unused" cannot be judged
against a partial registry.  ``LINT000``/``LINT001`` are pseudo-rules:
they cannot be selected, ignored, or suppressed.

Whole-program rules
-------------------
Rules subclassing :class:`~repro.lint.semantic.project.ProjectRule` run
once per lint run against a :class:`~repro.lint.semantic.project.Project`
built from every successfully parsed module; their findings honour the
same per-line suppressions as per-file rules.

Caching
-------
``lint_paths(..., cache_dir=...)`` enables the content-addressed result
cache (see :mod:`repro.lint.cache`): a warm run with unchanged sources
returns the stored result without re-running any rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.cache import (
    LintCache,
    content_digest,
    file_key,
    findings_from_payload,
    findings_to_payload,
    run_key,
)
from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, all_rules
from repro.lint.semantic.project import ProjectRule, build_project

__all__ = [
    "LintResult",
    "UnknownRuleError",
    "check_source",
    "lint_paths",
    "module_name_for",
    "select_rules",
]

#: Rule id used for files that cannot be read or parsed.
PARSE_RULE_ID = "LINT000"

#: Rule id used for suppression comments that silence nothing.
UNUSED_SUPPRESSION_RULE_ID = "LINT001"

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


class UnknownRuleError(ValueError):
    """``--select`` / ``--ignore`` named a rule id that does not exist."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """True when no unsuppressed findings remain."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def module_name_for(path: Path) -> str:
    """Dotted module name from the package layout, or ``""``.

    Walks up through directories containing ``__init__.py``; the topmost
    such directory is the package root (``src/repro/sim/engine.py`` ->
    ``repro.sim.engine``).
    """
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if len(parts) > (0 if path.stem == "__init__" else 1) else ""


def select_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[Rule]:
    """Resolve ``--select`` / ``--ignore`` ids against the registry."""
    rules = all_rules()
    known = {rule.rule_id for rule in rules}
    for requested in (select or []) + (ignore or []):
        if requested not in known:
            raise UnknownRuleError(
                f"unknown rule id {requested!r}; known: {sorted(known)}"
            )
    if select:
        rules = [rule for rule in rules if rule.rule_id in set(select)]
    if ignore:
        rules = [rule for rule in rules if rule.rule_id not in set(ignore)]
    return rules


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Map 1-based line number -> suppressed rule ids (None = all rules).

    Tokenize-based: only genuine comments count, so a suppression example
    quoted in a docstring does not silently swallow findings on its line.
    """
    out: dict[int, set[str] | None] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            rules = match.group("rules")
            if rules is None or not rules.strip():
                out[token.start[0]] = None
            else:
                out[token.start[0]] = {
                    tok.strip() for tok in rules.split(",") if tok.strip()
                }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable files already produce LINT000; partial results are
        # fine -- every token up to the error has been processed.
        pass
    return out


def _split_finding(
    finding: Finding,
    suppressions: dict[int, set[str] | None],
    kept: list[Finding],
    suppressed: list[Finding],
) -> None:
    allowed = suppressions.get(finding.line, ...)
    if allowed is None or (allowed is not ... and finding.rule_id in allowed):
        suppressed.append(finding)
    else:
        kept.append(finding)


def _check_module(
    ctx: ModuleContext,
    rules: list[Rule],
    suppressions: dict[int, set[str] | None],
) -> tuple[list[Finding], list[Finding]]:
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule) or not rule.applies_to(ctx.module):
            continue
        for finding in rule.check(ctx):
            _split_finding(finding, suppressions, kept, suppressed)
    return kept, suppressed


def _unused_suppressions(
    path: str,
    suppressions: dict[int, set[str] | None],
    suppressed: list[Finding],
) -> list[Finding]:
    used = {finding.line for finding in suppressed if finding.path == path}
    findings = []
    for line in sorted(set(suppressions) - used):
        findings.append(
            Finding(
                path,
                line,
                0,
                UNUSED_SUPPRESSION_RULE_ID,
                "suppression comment silences nothing on this line; "
                "delete it (stale suppressions hide future regressions)",
            )
        )
    return findings


def _run_project_rules(
    rules: list[Rule],
    contexts: list[ModuleContext],
    suppressions_by_path: dict[str, dict[int, set[str] | None]],
) -> tuple[list[Finding], list[Finding]]:
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    if not project_rules or not contexts:
        return kept, suppressed
    project = build_project(contexts)
    for rule in project_rules:
        for finding in rule.check_project(project):
            _split_finding(
                finding,
                suppressions_by_path.get(finding.path, {}),
                kept,
                suppressed,
            )
    return kept, suppressed


def check_source(
    source: str,
    *,
    path: str = "<string>",
    module: str = "",
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    check_unused: bool = False,
) -> LintResult:
    """Lint one in-memory source string (the test-fixture entry point).

    Runs per-file rules *and* the whole-program semantic rules (against a
    single-module project).  The unused-suppression check is opt-in here
    -- fixtures routinely carry suppressions for rules they do not
    exercise.
    """
    rules = select_rules(select, ignore)
    result = LintResult(rules_run=[rule.rule_id for rule in rules], files_checked=1)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.findings.append(
            Finding(path, exc.lineno or 1, exc.offset or 0, PARSE_RULE_ID,
                    f"syntax error: {exc.msg}")
        )
        return result
    ctx = ModuleContext(
        path=path, module=module, tree=tree,
        source_lines=tuple(source.splitlines()),
    )
    suppressions = _suppressions(source)
    kept, suppressed = _check_module(ctx, rules, suppressions)
    project_kept, project_suppressed = _run_project_rules(
        rules, [ctx], {path: suppressions}
    )
    result.findings.extend(kept + project_kept)
    result.suppressed.extend(suppressed + project_suppressed)
    if check_unused and select is None and ignore is None:
        result.findings.extend(
            _unused_suppressions(path, suppressions, result.suppressed)
        )
    result.findings.sort()
    result.suppressed.sort()
    return result


def _collect_files(paths: list[str | Path]) -> list[Path]:
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            if path.suffix == ".py":
                files.add(path)
        else:
            # A mistyped path must not yield a green "clean: 0 files" gate.
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(files)


def _result_payload(result: LintResult) -> dict:
    return {
        "findings": findings_to_payload(result.findings),
        "suppressed": findings_to_payload(result.suppressed),
        "files_checked": result.files_checked,
        "rules_run": list(result.rules_run),
    }


def _result_from_payload(payload: dict) -> LintResult:
    return LintResult(
        findings=findings_from_payload(payload["findings"]),
        suppressed=findings_from_payload(payload["suppressed"]),
        files_checked=payload["files_checked"],
        rules_run=list(payload["rules_run"]),
        from_cache=True,
    )


def lint_paths(
    paths: list[str | Path],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    cache_dir: str | Path | None = None,
) -> LintResult:
    """Lint every ``*.py`` file under the given files/directories.

    Parameters
    ----------
    cache_dir:
        Root of the content-addressed result cache; ``None`` (default)
        disables caching entirely.

    Raises
    ------
    UnknownRuleError
        If ``select`` or ``ignore`` name a rule id not in the registry.
    """
    rules = select_rules(select, ignore)
    check_unused = select is None and ignore is None
    result = LintResult(rules_run=[rule.rule_id for rule in rules])
    files = _collect_files(paths)
    cache = LintCache(cache_dir) if cache_dir is not None else None

    sources: list[tuple[Path, str | None, Exception | None]] = []
    for file_path in files:
        try:
            sources.append((file_path, file_path.read_text(encoding="utf-8"), None))
        except OSError as exc:
            sources.append((file_path, None, exc))

    if cache is not None:
        digest_list = [
            (str(path), content_digest(source))
            for path, source, _ in sources
            if source is not None
        ]
        whole_run_key = run_key(digest_list, select, ignore)
        hit = cache.load(whole_run_key)
        if hit is not None:
            return _result_from_payload(hit)

    file_rule_ids = [
        rule.rule_id for rule in rules if not isinstance(rule, ProjectRule)
    ]
    contexts: list[ModuleContext] = []
    suppressions_by_path: dict[str, dict[int, set[str] | None]] = {}
    for file_path, source, error in sources:
        result.files_checked += 1
        if source is None:
            result.findings.append(
                Finding(str(file_path), 1, 0, PARSE_RULE_ID,
                        f"cannot lint file: {error}")
            )
            continue
        try:
            tree = ast.parse(source, filename=str(file_path))
        except (SyntaxError, ValueError) as exc:
            message = getattr(exc, "msg", None) or str(exc)
            line = getattr(exc, "lineno", None) or 1
            result.findings.append(
                Finding(str(file_path), line, 0, PARSE_RULE_ID,
                        f"cannot lint file: {message}")
            )
            continue
        ctx = ModuleContext(
            path=str(file_path),
            module=module_name_for(file_path),
            tree=tree,
            source_lines=tuple(source.splitlines()),
        )
        contexts.append(ctx)
        suppressions = _suppressions(source)
        suppressions_by_path[ctx.path] = suppressions

        per_file_key = None
        cached = None
        if cache is not None:
            per_file_key = file_key(
                ctx.path, content_digest(source), file_rule_ids
            )
            cached = cache.load(per_file_key)
        if cached is not None:
            kept = findings_from_payload(cached["findings"])
            suppressed = findings_from_payload(cached["suppressed"])
        else:
            kept, suppressed = _check_module(ctx, rules, suppressions)
            if cache is not None and per_file_key is not None:
                cache.store(
                    per_file_key,
                    {
                        "findings": findings_to_payload(kept),
                        "suppressed": findings_to_payload(suppressed),
                    },
                )
        result.findings.extend(kept)
        result.suppressed.extend(suppressed)

    project_kept, project_suppressed = _run_project_rules(
        rules, contexts, suppressions_by_path
    )
    result.findings.extend(project_kept)
    result.suppressed.extend(project_suppressed)

    if check_unused:
        for path, suppressions in suppressions_by_path.items():
            result.findings.extend(
                _unused_suppressions(path, suppressions, result.suppressed)
            )

    result.findings.sort()
    result.suppressed.sort()
    if cache is not None:
        cache.store(whole_run_key, _result_payload(result))
    return result
