"""Module-level task functions for batch-runner tests.

Batch tasks are resolved by dotted path inside worker processes, so test
helpers must live in a module the workers can import under any
``multiprocessing`` start method (``spawn`` workers do not inherit pytest's
``sys.path`` additions, but they do inherit ``PYTHONPATH=src``).
"""

from __future__ import annotations


def maybe_fail(value: int = 0, fail: bool = False) -> int:
    """Double the value, or blow up on demand."""
    if fail:
        raise RuntimeError(f"task {value} exploded")
    return value * 2
