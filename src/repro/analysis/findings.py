"""The unit of simlint output: one :class:`Finding` per rule violation."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: scan-root-relative posix path (e.g. ``repro/results.py``)
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    message: str
    snippet: str  #: the offending source line, stripped

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (what ``check --json`` emits per finding)."""
        return asdict(self)

    def render(self) -> str:
        """The one-line text-reporter form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
