"""The lint engine: file collection, rule execution, suppression and strictness.

:func:`run_lint` is the one entry point (the CLI and the tests both call it). Per
file it parses once into a :class:`~repro.lint.context.FileContext`, runs the
selected rules, then applies the two sanctioned escape hatches in order — inline
``# repro-lint: allow[rule]`` comments, then the committed allowlist — counting
what each absorbed so the report stays honest about how clean the tree really is.

Strict mode (the CI gate) additionally audits the escape hatches themselves:

``unknown-suppression``
    A suppression comment or allowlist entry names a rule id that is not
    registered — a typo that would otherwise silently suppress nothing (or, after
    a rule rename, everything it used to).
``unused-suppression`` / ``unused-allowlist``
    The comment/entry matched no finding in this run. Dead escape hatches are how
    allowlists rot into blanket immunity; they are removed, not kept "just in
    case". (Only audited when the full rule set runs — a ``--rules`` subset
    legitimately leaves other rules' suppressions idle.)
``allowlist-path-form``
    An allowlist entry spells its path suffix non-canonically (``src/repro/...``
    instead of ``repro/...``). Both spellings *match* (the one shared matcher
    normalizes), but strict mode pins the convention so the allowlist and the
    policy tiers cannot drift into mixed forms.

``--changed`` support lives here too: :func:`changed_files` asks git for the
files differing from the committed state (``HEAD``), the fast local iteration
mode — CI always lints everything.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.allowlist import Allowlist
from repro.lint.context import FileContext, LintError
from repro.lint.findings import Finding, LintReport, SEVERITY_ERROR
from repro.lint.policy import normalize_path_suffix
from repro.lint.registry import all_rules, get_rule, load_builtin_rules, rule_ids


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files to lint."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py" and path.exists():
            files.append(path)
        elif not path.exists():
            raise LintError(f"lint target does not exist: {path}")
    # De-duplicate while preserving the sorted-per-argument order.
    seen = set()
    unique: List[Path] = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def display_path(path: Path, base_dir: Optional[Path] = None) -> str:
    """Repo-relative posix path for findings (falls back to the path as given)."""
    base = base_dir if base_dir is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def changed_files(root: Path) -> List[Path]:
    """Python files differing from the committed state (``git diff HEAD`` plus
    untracked), for ``repro lint --changed``. Raises :class:`LintError` when
    ``root`` is not inside a git work tree.

    Both listings are anchored on the work-tree top level: ``git diff`` always
    prints toplevel-relative names (even when invoked from a subdirectory, where
    joining them onto ``root`` used to silently drop every changed file), and
    running ``ls-files --others`` *from* the top level makes untracked names
    toplevel-relative too — so new, not-yet-``git add``-ed ``.py`` files are
    included, which is exactly when lint feedback matters most.
    """
    try:
        toplevel_result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as error:
        raise LintError(
            f"--changed needs a git work tree at {root} "
            f"(rev-parse --show-toplevel failed: {error})"
        ) from None
    toplevel = Path(toplevel_result.stdout.strip())
    commands = (
        ["git", "-C", str(toplevel), "diff", "--name-only", "HEAD", "--"],
        ["git", "-C", str(toplevel), "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as error:
            raise LintError(
                f"--changed needs a git work tree at {root} "
                f"({' '.join(command[3:])} failed: {error})"
            ) from None
        names.extend(result.stdout.splitlines())
    files = []
    for name in dict.fromkeys(names):  # de-duplicate, keep order
        path = toplevel / name
        if path.suffix == ".py" and path.exists():
            files.append(path)
    return files


def _lint_one(
    path: Path,
    rules,
    allowlist: Allowlist,
    base_dir: Optional[Path],
) -> LintReport:
    report = LintReport(files_checked=1, rules_run=tuple(rule.id for rule in rules))
    shown = display_path(path, base_dir)
    try:
        source = path.read_text()
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}") from None

    try:
        context = FileContext(path, shown, source)
    except SyntaxError as error:
        finding = Finding(
            path=shown,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            rule="parse-error",
            message=f"file does not parse: {error.msg}",
            severity=SEVERITY_ERROR,
        )
        report.findings.append(finding)
        return report

    raw = []
    for rule in rules:
        raw.extend(rule.check(context))

    for finding in raw:
        if context.is_suppressed(finding.line, finding.rule):
            report.suppressed += 1
        elif allowlist.allows(finding):
            report.allowlisted += 1
        else:
            report.findings.append(finding)

    report._context = context  # type: ignore[attr-defined]  # strict-audit hook
    return report


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Iterable[str]] = None,
    strict: bool = False,
    allowlist: Optional[Allowlist] = None,
    base_dir: Optional[Path] = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return the merged report.

    ``rules`` selects a subset by id (default: every registered rule); unknown
    ids raise :class:`LintError`. ``strict`` adds the escape-hatch audit
    findings described in the module docstring. ``allowlist`` defaults to
    discovery (walking up from the first path for ``.repro-lint-allow``).
    """
    load_builtin_rules()
    if rules is None:
        selected = all_rules()
        full_run = True
    else:
        selected = [get_rule(rule_id) for rule_id in rules]
        full_run = False
    if allowlist is None:
        allowlist = (
            Allowlist.discover(Path(paths[0])) if paths else Allowlist.empty()
        )

    files = collect_files([Path(path) for path in paths])
    merged = LintReport(rules_run=tuple(rule.id for rule in selected))
    contexts: List[FileContext] = []
    for file in files:
        report = _lint_one(file, selected, allowlist, base_dir)
        context = getattr(report, "_context", None)
        if context is not None:
            contexts.append(context)
        merged.findings.extend(report.findings)
        merged.files_checked += report.files_checked
        merged.suppressed += report.suppressed
        merged.allowlisted += report.allowlisted

    if strict:
        merged.findings.extend(
            _strict_audit(contexts, allowlist, full_run=full_run)
        )
    return merged


def _strict_audit(
    contexts: List[FileContext], allowlist: Allowlist, full_run: bool
) -> List[Finding]:
    known = set(rule_ids())
    findings: List[Finding] = []
    for context in contexts:
        for suppression in context.suppressions:
            unknown = [rule for rule in suppression.rules if rule not in known]
            for rule in unknown:
                findings.append(
                    Finding(
                        path=context.display_path,
                        line=suppression.line,
                        col=0,
                        rule="unknown-suppression",
                        message=(
                            f"suppression names unregistered rule {rule!r} "
                            f"(registered: {sorted(known)})"
                        ),
                        scope=context.scope_at(suppression.line),
                    )
                )
            if full_run and not suppression.used and not unknown:
                findings.append(
                    Finding(
                        path=context.display_path,
                        line=suppression.line,
                        col=0,
                        rule="unused-suppression",
                        message=(
                            f"suppression allow[{','.join(suppression.rules)}] "
                            f"matched no finding; remove it"
                        ),
                        scope=context.scope_at(suppression.line),
                    )
                )
    allowlist_path = (
        allowlist.source_path.as_posix() if allowlist.source_path else "<allowlist>"
    )
    for entry in allowlist.unknown_rules(known):
        findings.append(
            Finding(
                path=allowlist_path,
                line=entry.line,
                col=0,
                rule="unknown-suppression",
                message=(
                    f"allowlist entry '{entry.describe()}' names unregistered "
                    f"rule {entry.rule!r}"
                ),
            )
        )
    for entry in allowlist.entries:
        if entry.is_canonical_form():
            continue
        findings.append(
            Finding(
                path=allowlist_path,
                line=entry.line,
                col=0,
                rule="allowlist-path-form",
                message=(
                    f"allowlist entry '{entry.describe()}' spells its path "
                    f"non-canonically; write it package-relative as "
                    f"{normalize_path_suffix(entry.path_suffix)!r} so the "
                    f"allowlist and the policy tiers share one convention"
                ),
            )
        )
    if full_run:
        for entry in allowlist.unused_entries():
            if entry.rule not in known:
                continue  # already reported as unknown-suppression
            findings.append(
                Finding(
                    path=allowlist_path,
                    line=entry.line,
                    col=0,
                    rule="unused-allowlist",
                    message=(
                        f"allowlist entry '{entry.describe()}' matched no "
                        f"finding; remove it so the allowlist cannot rot"
                    ),
                )
            )
    return findings
