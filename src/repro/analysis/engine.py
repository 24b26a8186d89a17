"""The simlint rule engine: file walking, rule dispatch, suppression filter.

The engine is deliberately small: a :class:`Rule` sees one
:class:`~repro.analysis.context.FileContext` at a time
(:meth:`Rule.check_file`).  :func:`check_sources` is the one per-file loop:
it parses each file, applies every rule whose scope matches the file's
module, filters findings through the file's suppression comments, and
returns the surviving findings sorted by location.  :func:`run_checks`
feeds it a package directory read from disk and :func:`check_source` one
in-memory file.  Determinism of the output ordering is itself an invariant
here: the JSON report must be byte-stable for a given tree so CI artifacts
diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
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
]


class Rule:
    """Base class for simlint rules.

    Subclasses set :attr:`name` (the id used in suppressions),
    :attr:`description`, and :attr:`scopes` (module-prefix filters; a file
    is checked when its module equals a scope or lives under it), and
    implement :meth:`check_file`.
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

    def finding(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            snippet=ctx.snippet(line),
        )


def _module_name(rel: str) -> str:
    """Dotted module name for an engine-relative path (``repro/a/b.py``)."""
    parts = rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class CheckRun:
    """The outcome of one engine run: findings plus run metadata.

    ``checked_files`` is the number of files actually walked (satisfying
    the CLI's summary line without a second tree walk).
    """

    findings: List[Finding]
    checked_files: int


def check_sources(
    sources: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run rules over a tree of files held in memory.

    ``sources`` maps engine-relative paths (``repro/scenarios/spec.py``,
    ``repro/sim/__init__.py``) to source text.  Files that fail to parse
    surface as ``simlint`` findings rather than a crash -- a lint gate must
    degrade to a report, not a traceback -- and so does a suppression
    comment naming a rule that does not exist.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    known = {rule.name for rule in rules}
    findings: List[Finding] = []
    for rel in sorted(sources):
        try:
            ctx = FileContext(rel, _module_name(rel), sources[rel])
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="simlint",
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.__class__.__name__}: {exc}",
                    snippet="",
                )
            )
            continue
        for name in sorted(ctx.suppression_rules() - known):
            findings.append(
                Finding(
                    rule="simlint",
                    path=rel,
                    line=1,
                    col=0,
                    message=f"suppression names unknown rule {name!r}",
                    snippet=ctx.snippet(1),
                )
            )
        for rule in rules:
            if rule.applies_to(ctx.module):
                findings.extend(
                    finding
                    for finding in rule.check_file(ctx)
                    if not ctx.suppressed(finding.rule, finding.line)
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def run_checks(root: Path, rules: Sequence[Rule]) -> CheckRun:
    """Run ``rules`` over every Python file under ``root``.

    ``root`` is the package directory (e.g. ``src/repro``); paths in the
    returned findings are relative to its *parent* (``repro/...``), so
    reports are stable across checkouts.
    """
    root = Path(root).resolve()
    sources: Dict[str, str] = {
        path.relative_to(root.parent).as_posix(): path.read_text(
            encoding="utf-8", errors="replace"
        )
        for path in root.rglob("*.py")
    }
    return CheckRun(findings=check_sources(sources, rules), checked_files=len(sources))


def check_source(
    source: str,
    module: str = "repro.fixture",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run rules over one in-memory source string as module ``module``."""
    return check_sources({module.replace(".", "/") + ".py": source}, rules)
