"""deterministic-dict-iteration: never iterate a set into ordered output.

Iterating a ``set`` feeds arbitrary-ordered data into whatever consumes the
loop; when that output is ordered (lists, config dicts, schedules, cache
keys) the run stops being reproducible, because string hashing is
randomised per process.  Sets are fine for membership; sort them before
iteration (``sorted(s)``) or keep order in a list/dict.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..context import FileContext
from ..engine import Rule
from ..findings import Finding

__all__ = ["DeterministicDictIterationRule"]


class DeterministicDictIterationRule(Rule):
    name = "deterministic-dict-iteration"
    description = (
        "Forbid iterating sets into ordered output (for-loops, "
        "comprehensions, list()/tuple() conversions); sort first so results "
        "are order-deterministic."
    )
    scopes = ("repro",)

    _ORDER_SENSITIVE_CONVERSIONS = {"list", "tuple", "enumerate"}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                self._check_iterable(ctx, node.iter, findings)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # Set *output* (SetComp) is order-free; its input still feeds
                # evaluation order, but only ordered outputs are flagged.
                if isinstance(node, ast.SetComp):
                    continue
                for generator in node.generators:
                    self._check_iterable(ctx, generator.iter, findings)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else None
                if name in self._ORDER_SENSITIVE_CONVERSIONS and node.args:
                    self._check_iterable(ctx, node.args[0], findings)
        return findings

    def _check_iterable(
        self, ctx: FileContext, node: ast.expr, findings: List[Finding]
    ) -> None:
        if self._is_set_expr(node):
            findings.append(
                self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "iterating a set in ordered context -- set order is "
                    "arbitrary across runs/processes; use sorted(...) or an "
                    "ordered container",
                )
            )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            # set operations on the result of set(...): set(a) | set(b)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return (
                DeterministicDictIterationRule._is_set_expr(node.left)
                or DeterministicDictIterationRule._is_set_expr(node.right)
            )
        return False
