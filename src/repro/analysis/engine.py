"""The simlint rule engine: file walking, rule dispatch, suppression filter.

The engine is deliberately small: a :class:`Rule` sees one
:class:`~repro.analysis.context.FileContext` at a time (:meth:`Rule.check_file`)
and may emit more findings after the whole tree has been scanned
(:meth:`Rule.finalize` -- how the cross-file slots-in-the-MRO check works).
:func:`run_checks` walks a package directory in sorted order, applies every
rule whose scope matches the file's module, filters findings through the
file's suppression comments, and returns the surviving findings sorted by
location.  Determinism of the output ordering is itself an invariant here:
the JSON report must be byte-stable for a given tree so CI artifacts diff
cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .context import FileContext
from .findings import Finding

__all__ = [
    "Rule",
    "CheckRun",
    "run_checks",
    "check_source",
    "check_sources",
    "iter_python_files",
    "module_name_for",
]


class Rule:
    """Base class for simlint rules.

    Subclasses set :attr:`name` (the id used in suppressions and baselines),
    :attr:`description`, and :attr:`scopes` (module-prefix filters; a file
    is checked when its module equals a scope or lives under it).  They
    implement :meth:`check_file` and, for cross-file invariants,
    :meth:`finalize`.  Rule instances are created fresh for every run, so
    accumulating state across :meth:`check_file` calls is safe.
    """

    name: str = ""
    description: str = ""
    #: Module prefixes this rule applies to ("repro" = the whole package).
    scopes: Tuple[str, ...] = ("repro",)

    def applies_to(self, module: str) -> bool:
        return any(
            module == scope or module.startswith(scope + ".") for scope in self.scopes
        )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finalize(self) -> Iterable[Finding]:
        """Findings that need the whole scanned tree (default: none)."""
        return ()

    # -- helpers ---------------------------------------------------------------

    def finding(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            snippet=ctx.snippet(line),
        )


def module_name_for(file_path: Path, root: Path, package: str) -> str:
    """Dotted module name of ``file_path`` inside the scanned package."""
    relative = file_path.relative_to(root)
    parts = list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join([package, *parts]) if parts else package


def iter_python_files(root: Path) -> List[Path]:
    """All ``.py`` files under ``root`` in deterministic sorted order."""
    return sorted(path for path in root.rglob("*.py"))


def _check_context(
    ctx: FileContext, rules: Sequence[Rule], unsuppressed: List[Finding]
) -> None:
    known = {rule.name for rule in rules}
    unknown = ctx.suppression_rules() - known - {"all"}
    for name in sorted(unknown):
        unsuppressed.append(
            Finding(
                rule="simlint",
                path=ctx.path,
                line=1,
                col=0,
                message=f"suppression names unknown rule {name!r}",
                snippet=ctx.snippet(1),
            )
        )
    for rule in rules:
        if not rule.applies_to(ctx.module):
            continue
        for finding in rule.check_file(ctx):
            if not ctx.suppressed(finding.rule, finding.line):
                unsuppressed.append(finding)


@dataclass
class CheckRun:
    """The outcome of one engine run: findings plus run metadata.

    ``checked_files`` is the number of files actually walked (satisfying
    the CLI's summary line without a second tree walk).
    """

    findings: List[Finding] = field(default_factory=list)
    checked_files: int = 0


def run_checks(
    root: Path,
    rules: Sequence[Rule],
    package: Optional[str] = None,
) -> CheckRun:
    """Run ``rules`` over every Python file under ``root``.

    ``root`` is the package directory (e.g. ``src/repro``); paths in the
    returned findings are relative to its *parent* (``repro/...``), so
    fingerprints are stable across checkouts.  Files that fail to parse
    surface as ``simlint`` syntax findings rather than a crash -- a lint
    gate must degrade to a report, not a traceback.
    """
    root = Path(root).resolve()
    pkg = package if package is not None else root.name
    findings: List[Finding] = []
    contexts: Dict[str, FileContext] = {}
    checked_files = 0
    for file_path in iter_python_files(root):
        checked_files += 1
        rel = (Path(pkg) / file_path.relative_to(root)).as_posix()
        module = module_name_for(file_path, root, pkg)
        try:
            source = file_path.read_text(encoding="utf-8")
            ctx = FileContext(rel, module, source)
        except (SyntaxError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    rule="simlint",
                    path=rel,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=getattr(exc, "offset", 0) or 0,
                    message=f"file does not parse: {exc.__class__.__name__}: {exc}",
                    snippet="",
                )
            )
            continue
        contexts[rel] = ctx
        _check_context(ctx, rules, findings)
    for rule in rules:
        for finding in rule.finalize():
            ctx = contexts.get(finding.path)
            if ctx is not None and ctx.suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return CheckRun(findings=findings, checked_files=checked_files)


def check_source(
    source: str,
    module: str = "repro.fixture",
    path: str = "repro/fixture.py",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run rules over one in-memory source string (the test fixture path).

    Mirrors :func:`run_checks` for a single pseudo-file: per-file checks,
    suppression filtering, then each rule's :meth:`~Rule.finalize`.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    ctx = FileContext(path, module, source)
    findings: List[Finding] = []
    _check_context(ctx, rules, findings)
    for rule in rules:
        for finding in rule.finalize():
            if not ctx.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def module_name_for_rel(rel: str) -> str:
    """Dotted module name for an engine-relative path (``repro/a/b.py``)."""
    parts = rel[: -len(".py")].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def check_sources(
    sources: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run rules over an in-memory multi-file tree.

    ``sources`` maps engine-relative paths (``repro/scenarios/spec.py``,
    ``repro/sim/__init__.py``) to source text.  Mirrors :func:`run_checks`,
    so fixtures with cross-file state (the slots-in-the-MRO check) can span
    several modules without touching the filesystem.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    findings: List[Finding] = []
    contexts: Dict[str, FileContext] = {}
    for rel in sorted(sources):
        ctx = FileContext(rel, module_name_for_rel(rel), sources[rel])
        contexts[rel] = ctx
        _check_context(ctx, rules, findings)
    for rule in rules:
        for finding in rule.finalize():
            ctx = contexts.get(finding.path)
            if ctx is not None and ctx.suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
