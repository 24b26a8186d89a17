"""Per-file analysis context: parsed AST, import table, suppressions.

A :class:`FileContext` is built once per scanned file and handed to every
rule, so the AST is parsed once, the import table (local name -> dotted
module path) is resolved once, and suppression comments are extracted
once.  A ``# simlint: disable=<rule>[,<rule>...]`` comment is the one
exemption mechanism: it silences the named rules on its own line.

Name resolution
---------------
Rules that care about *which module* a call reaches (the RNG and wall-clock
rules) use :meth:`FileContext.resolve`, which follows attribute chains back
through the file's imports::

    import numpy as np          ->  np.random.default_rng  resolves to
                                    "numpy.random.default_rng"
    from time import perf_counter -> perf_counter() resolves to
                                    "time.perf_counter"
    from datetime import datetime -> datetime.now() resolves to
                                    "datetime.datetime.now"

Resolution is purely lexical -- no imports are executed -- which is exactly
the right fidelity for a lint gate: it cannot crash on import side effects
and it sees the file the way a reviewer does.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional

__all__ = ["FileContext"]

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\- ]+)")


class FileContext:
    """Everything a rule needs to know about one source file."""

    __slots__ = (
        "path",
        "module",
        "lines",
        "tree",
        "imports",
        "_suppressions",
    )

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.lines: List[str] = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.imports: Dict[str, str] = {}
        self._collect_imports()
        self._suppressions: Dict[int, FrozenSet[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                self._suppressions[lineno] = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )

    # -- imports ---------------------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c=a.b
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: keep the package-relative tail
                    base = "." * node.level + (node.module or "")
                else:
                    base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted path an expression reaches, or ``None`` if unknown.

        Follows ``Name`` and ``Attribute`` chains through the import table.
        Unimported bare names resolve to themselves (a lexical best-effort:
        ``Random`` after ``from random import Random`` resolves fully, a
        local variable named ``time`` resolves to ``"time"`` only if nothing
        shadows the import in the table -- acceptable for a lint gate).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    # -- suppressions ----------------------------------------------------------

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether a same-line suppression comment names ``rule``."""
        return rule in self._suppressions.get(line, ())

    def suppression_rules(self) -> FrozenSet[str]:
        """Every rule name referenced by a suppression comment (for linting
        the suppressions themselves -- unknown names are reported)."""
        names: FrozenSet[str] = frozenset()
        return names.union(*self._suppressions.values())

    # -- helpers for rules -----------------------------------------------------

    def snippet(self, line: int) -> str:
        """The stripped source line at a 1-based line number."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""
