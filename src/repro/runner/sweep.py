"""Parameter-grid expansion and deterministic per-task seeding."""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

__all__ = ["expand_grid", "per_task_seed"]


def expand_grid(
    base: Mapping[str, Any], grid: Mapping[str, Sequence[Any]]
) -> List[Dict[str, Any]]:
    """Cartesian product of ``grid`` axes merged over a ``base`` config.

    ``expand_grid({"alpha": 3}, {"rmax": [20, 55], "sigma": [0, 8]})`` yields
    four configs; axes iterate with the *last* axis fastest, and axis order is
    the mapping's insertion order, so the expansion is deterministic.
    Grid keys override any same-named key in ``base``.
    """
    axes = list(grid.items())
    for name, values in axes:
        if not isinstance(values, (list, tuple, np.ndarray, range)):
            raise TypeError(f"grid axis {name!r} must be a sequence, got {type(values).__name__}")
        if len(values) == 0:
            raise ValueError(f"grid axis {name!r} is empty")
    configs: List[Dict[str, Any]] = []
    for combo in itertools.product(*(values for _, values in axes)):
        config = dict(base)
        config.update({name: plain(value) for (name, _), value in zip(axes, combo)})
        configs.append(config)
    return configs


def plain(value: Any) -> Any:
    """``value`` with its numpy scalars, at any depth, as Python scalars, so
    configs stay JSON-able."""
    if isinstance(value, np.generic):
        return value.item()
    if type(value) is dict:
        return {key: plain(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return type(value)(plain(item) for item in value)
    return value


def per_task_seed(base_seed: int, index: int) -> int:
    """A deterministic, well-separated seed for task ``index`` of a sweep.

    Uses :class:`numpy.random.SeedSequence` so neighbouring indices give
    statistically independent streams (plain ``base_seed + index`` makes
    adjacent tasks' generators correlated for some bit generators).
    """
    state = np.random.SeedSequence(entropy=(int(base_seed), int(index))).generate_state(1)
    return int(state[0])
