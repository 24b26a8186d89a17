"""Experiment harnesses: one module per paper table / figure, plus ablations.

Each module exposes ``run(...) -> ExperimentResult`` (the computational
body) and registers a declarative :class:`repro.api.Experiment` -- id,
title, tags, typed parameter spec -- in the shared
:data:`repro.api.EXPERIMENTS` registry.  Importing this package registers
the builtins.  The registry is what the ``python -m repro.experiments``
CLI (``list | describe | run``), discovery, and the artifact persistence
layer operate on; plugin experiments registered with
:func:`repro.api.experiment` appear there exactly like the builtins.
"""

from ..api.experiment import EXPERIMENTS
from . import (
    ablation_fixed_bitrate,
    ablation_noise_floor,
    bianchi_vs_sim,
    control_under_burst,
    figure02_landscape,
    figure03_preferences,
    figure04_curves,
    figure05_06_threshold_regions,
    figure07_optimal_threshold,
    figure09_shadowing,
    figure14_propagation_fit,
    online_vs_static,
    run_scenarios,
    saturated_network,
    section34_mistake_probability,
    section5_exposed_terminals,
    table1_fixed_threshold,
    table2_tuned_threshold,
    testbed_section4,
)
from .base import ExperimentResult

__all__ = ["ExperimentResult", "EXPERIMENTS"]
