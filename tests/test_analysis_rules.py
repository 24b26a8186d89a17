"""Fixture tests for every simlint rule: one firing and one non-firing
source per rule, plus suppression-comment and baseline round-trip coverage.

These are the tests that keep the lint gate honest: a rule that silently
stops firing (or starts flagging the sanctioned idiom) fails here long
before it misgates a real PR.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import Baseline, check_source, check_sources, default_rules
from repro.analysis.engine import Rule


def _lint(source: str, module: str = "repro.simulation.fixture"):
    return check_source(textwrap.dedent(source), module=module)


def _rules_fired(source: str, module: str = "repro.simulation.fixture"):
    return {f.rule for f in _lint(source, module=module)}


# -- no-unseeded-rng ---------------------------------------------------------


def test_rng_rule_fires_on_unseeded_default_rng():
    findings = _lint(
        """
        import numpy as np
        rng = np.random.default_rng()
        """
    )
    assert [f.rule for f in findings] == ["no-unseeded-rng"]
    assert "without a seed" in findings[0].message


def test_rng_rule_fires_on_global_module_draws():
    assert "no-unseeded-rng" in _rules_fired(
        """
        import random
        import numpy as np

        def jitter():
            return random.random() + np.random.normal()
        """
    )


def test_rng_rule_fires_on_default_factory_reference():
    findings = _lint(
        """
        from dataclasses import dataclass, field
        import numpy as np

        @dataclass(slots=True)
        class Model:
            rng: np.random.Generator = field(default_factory=np.random.default_rng)
        """
    )
    assert any(
        f.rule == "no-unseeded-rng" and "default_factory" in f.message
        for f in findings
    )


def test_rng_rule_accepts_seeded_constructions():
    assert "no-unseeded-rng" not in _rules_fired(
        """
        import random
        import numpy as np

        rng = np.random.default_rng(42)
        child = np.random.Generator(np.random.PCG64(7))
        seq = np.random.SeedSequence(entropy=123)
        legacy = random.Random(0)
        draw = rng.normal()
        """
    )


# An OS-entropy stream handed across modules into simulation, networking,
# runner or control code: the construction site itself is the finding, so
# the syntactic rule catches every such tree wherever the stream ends up.

_SIM_SINK = {
    "repro/simulation/__init__.py": "",
    "repro/simulation/engine.py": "def run_sim(rng):\n    return rng.random()\n",
}
_CONTROL_SINK = {
    "repro/control/__init__.py": "",
    "repro/control/controllers.py": "def make_controller(rng):\n    return rng.random()\n",
}
_RUNNER_SINK = {
    "repro/runner/__init__.py": "",
    "repro/runner/pool.py": "def dispatch(rng):\n    return rng.random()\n",
}


def _launch_through_helper(construction: str) -> dict:
    return {
        **_SIM_SINK,
        "repro/launch.py": (
            "import numpy as np\n"
            "from repro.simulation.engine import run_sim\n"
            "def helper(rng):\n"
            "    return run_sim(rng)\n"
            "def main(seed):\n"
            f"    rng = {construction}\n"
            "    return helper(rng)\n"
        ),
    }


def _launch_controller(construction: str) -> dict:
    return {
        **_CONTROL_SINK,
        "repro/launch.py": (
            "import numpy as np\n"
            "from repro.control.controllers import make_controller\n"
            "def main():\n"
            f"    rng = {construction}\n"
            "    return make_controller(rng)\n"
        ),
    }


_CROSS_MODULE_UNSEEDED = {
    "helper_call": (_launch_through_helper("np.random.default_rng()"), "repro/launch.py"),
    "parameter_default": (
        {
            **_RUNNER_SINK,
            "repro/entry.py": (
                "import numpy as np\n"
                "from repro.runner.pool import dispatch\n"
                "def launch(rng=np.random.default_rng()):\n"
                "    return dispatch(rng)\n"
            ),
        },
        "repro/entry.py",
    ),
    "protected_package": (
        {
            "repro/networking/__init__.py": "",
            "repro/networking/jitter.py": (
                "import numpy as np\n"
                "def perturb(values, rng=np.random.default_rng()):\n"
                "    return values + rng.normal()\n"
            ),
        },
        "repro/networking/jitter.py",
    ),
    "control_sink": (_launch_controller("np.random.default_rng()"), "repro/launch.py"),
}

_CROSS_MODULE_SEEDED = {
    "seeded_stream": _launch_through_helper("np.random.default_rng(seed)"),
    "none_and_seeded_default": {
        **_RUNNER_SINK,
        "repro/entry.py": (
            "import numpy as np\n"
            "def launch(rng=None, alt=np.random.default_rng(1234)):\n"
            "    from repro.runner.pool import dispatch\n"
            "    return dispatch(rng)\n"
        ),
    },
    "seeded_controller_stream": _launch_controller("np.random.default_rng(0xC0)"),
}


@pytest.mark.parametrize("name", sorted(_CROSS_MODULE_UNSEEDED))
def test_rng_rule_fires_on_unseeded_stream_handoff(name):
    sources, path = _CROSS_MODULE_UNSEEDED[name]
    hits = [f for f in check_sources(sources) if f.rule == "no-unseeded-rng"]
    assert len(hits) == 1
    assert hits[0].path == path
    assert "default_rng()" in hits[0].snippet


@pytest.mark.parametrize("name", sorted(_CROSS_MODULE_SEEDED))
def test_rng_rule_accepts_seeded_stream_handoff(name):
    findings = check_sources(_CROSS_MODULE_SEEDED[name])
    assert "no-unseeded-rng" not in {f.rule for f in findings}


# -- no-wall-clock -----------------------------------------------------------


def test_wall_clock_rule_fires_in_simulation_scope():
    findings = _lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        module="repro.simulation.fixture",
    )
    assert any(f.rule == "no-wall-clock" for f in findings)


def test_wall_clock_rule_ignores_out_of_scope_modules():
    assert "no-wall-clock" not in _rules_fired(
        """
        import time

        def stamp():
            return time.perf_counter()
        """,
        module="repro.plotting.fixture",
    )


def test_wall_clock_rule_accepts_sim_clock():
    assert "no-wall-clock" not in _rules_fired(
        """
        def stamp(sim):
            return sim.now
        """,
        module="repro.simulation.fixture",
    )


# Wall-clock reads behind call chains from the determinism entry points
# (Simulator.run, SimEnv.step).  Inside a scoped package the read is flagged
# whether or not a run reaches it; outside every scope it stays quiet.

_CHAINED_WALL_CLOCK = {
    "two_hop_chain": """
        import time
        class Simulator:
            def run(self):
                return helper()
        def helper():
            return stamp()
        def stamp():
            return time.time()
        """,
    "simenv_step": """
        import time
        class SimEnv:
            def step(self, action):
                return decide(action)
        def decide(action):
            return time.time()
        """,
    "unreachable_from_run": """
        import time
        class Simulator:
            def run(self):
                return 0
        def bench_only():
            return time.time()
        """,
    "unreachable_from_step": """
        import time
        class SimEnv:
            def step(self, action):
                return 0
        def bench_only():
            return time.time()
        """,
}


@pytest.mark.parametrize("name", sorted(_CHAINED_WALL_CLOCK))
def test_wall_clock_rule_fires_behind_call_chains(name):
    findings = _lint(_CHAINED_WALL_CLOCK[name], module="repro.scenarios.fixture")
    hits = [f for f in findings if f.rule == "no-wall-clock"]
    assert len(hits) == 1
    assert "time.time" in hits[0].message


@pytest.mark.parametrize("name", sorted(_CHAINED_WALL_CLOCK))
def test_wall_clock_rule_skips_chains_out_of_scope(name):
    assert "no-wall-clock" not in _rules_fired(
        _CHAINED_WALL_CLOCK[name], module="repro.runner.fixture"
    )


_WIDENED_SCOPES = (
    "repro.scenarios",
    "repro.capacity",
    "repro.results",
    "repro.propagation",
)


@pytest.mark.parametrize("package", _WIDENED_SCOPES)
def test_wall_clock_rule_fires_in_widened_scope(package):
    findings = _lint(
        """
        from time import perf_counter

        def stamp():
            return perf_counter()
        """,
        module=f"{package}.fixture",
    )
    assert [f.rule for f in findings] == ["no-wall-clock"]


@pytest.mark.parametrize("package", _WIDENED_SCOPES)
def test_wall_clock_rule_accepts_sim_clock_in_widened_scope(package):
    assert "no-wall-clock" not in _rules_fired(
        """
        def stamp(net):
            return net.sim.now
        """,
        module=f"{package}.fixture",
    )


_AMBIENT_READS = {
    "os.getenv": "import os\nvalue = os.getenv('REPRO_SEED')\n",
    "os.environ.get": "import os\nvalue = os.environ.get('REPRO_SEED', '0')\n",
    "os.urandom": "from os import urandom\nvalue = urandom(8)\n",
    "uuid.uuid1": "import uuid\nvalue = uuid.uuid1()\n",
    "uuid.uuid4": "from uuid import uuid4\nvalue = uuid4()\n",
}


@pytest.mark.parametrize("call", sorted(_AMBIENT_READS))
def test_wall_clock_rule_fires_on_ambient_read(call):
    findings = _lint(_AMBIENT_READS[call], module="repro.simulation.fixture")
    assert [f.rule for f in findings] == ["no-wall-clock"]
    assert f"ambient-state read {call}()" in findings[0].message


@pytest.mark.parametrize("call", sorted(_AMBIENT_READS))
def test_wall_clock_rule_accepts_ambient_read_out_of_scope(call):
    assert "no-wall-clock" not in _rules_fired(
        _AMBIENT_READS[call], module="repro.runner.fixture"
    )


def test_wall_clock_rule_accepts_seed_derived_identifiers():
    assert "no-wall-clock" not in _rules_fired(
        """
        import os
        import uuid

        def run_id(seed):
            return uuid.uuid5(uuid.NAMESPACE_OID, str(seed)), os.path.join("a", "b")
        """,
        module="repro.simulation.fixture",
    )


# -- slots-hot-path ----------------------------------------------------------


def test_slots_rule_fires_on_plain_class_in_hot_scope():
    findings = _lint(
        """
        class Frame:
            def __init__(self):
                self.src = None
        """
    )
    assert any(f.rule == "slots-hot-path" for f in findings)


def test_slots_rule_accepts_slotted_and_exempt_classes():
    assert "slots-hot-path" not in _rules_fired(
        """
        import enum
        from dataclasses import dataclass
        from typing import NamedTuple

        class Frame:
            __slots__ = ("src",)

        @dataclass(slots=True)
        class Stats:
            count: int = 0

        class Kind(enum.Enum):
            DATA = 1

        class Pair(NamedTuple):
            a: int
            b: int

        class BadFrame(ValueError, Exception):
            pass
        """
    )


def test_slots_rule_flags_unslotted_base_in_mro():
    findings = _lint(
        """
        class Base:
            def __init__(self):
                self.x = 1

        class Hot(Base):
            __slots__ = ("y",)
        """
    )
    # Base itself is in scope and unslotted; Hot's chain is therefore broken.
    assert any(f.rule == "slots-hot-path" and "Base" in f.message for f in findings)


def test_slots_rule_silent_outside_report_scope():
    assert "slots-hot-path" not in _rules_fired(
        """
        class Helper:
            def __init__(self):
                self.x = 1
        """,
        module="repro.plotting.fixture",
    )


# -- repro.control scope coverage --------------------------------------------
#
# The closed-loop control plane holds the same determinism bar as the
# simulation core: wall clocks and slot-less hot-path classes are flagged
# inside repro.control, and the sanctioned idioms stay quiet there.


def test_wall_clock_rule_fires_in_control_scope():
    findings = _lint(
        """
        import time

        def epoch_stamp():
            return time.perf_counter()
        """,
        module="repro.control.fixture",
    )
    assert any(f.rule == "no-wall-clock" for f in findings)


def test_wall_clock_rule_accepts_sim_clock_in_control_scope():
    assert "no-wall-clock" not in _rules_fired(
        """
        def epoch_stamp(net):
            return net.sim.now
        """,
        module="repro.control.fixture",
    )


def test_slots_rule_fires_on_plain_class_in_control_scope():
    findings = _lint(
        """
        class Probe:
            def __init__(self):
                self.windows = {}
        """,
        module="repro.control.fixture",
    )
    assert any(f.rule == "slots-hot-path" for f in findings)


def test_slots_rule_accepts_slotted_controller_in_control_scope():
    assert "slots-hot-path" not in _rules_fired(
        """
        from dataclasses import dataclass

        class Controller:
            __slots__ = ("step_db",)

        @dataclass(frozen=True, slots=True)
        class Action:
            cca_delta_db: float = 0.0
        """,
        module="repro.control.fixture",
    )


# -- registry-dispatch -------------------------------------------------------


def test_dispatch_rule_fires_on_direct_mac_construction():
    findings = _lint(
        """
        from repro.simulation.mac.csma import CsmaMac

        def build(net, radio, selector, rng):
            return CsmaMac("a", net.sim, radio, selector, rng=rng)
        """,
        module="repro.experiments.fixture",
    )
    assert any(f.rule == "registry-dispatch" for f in findings)


def test_dispatch_rule_allows_home_modules_and_attribute_calls():
    assert "registry-dispatch" not in _rules_fired(
        """
        from repro.simulation.mac.csma import CsmaMac

        def make(net, node_id, radio, selector, rng, **params):
            return CsmaMac(node_id, net.sim, radio, selector, rng=rng, **params)
        """,
        module="repro.simulation.mac.fixture",
    )
    # `ax.grid(...)` must not be mistaken for the `grid` topology factory.
    assert "registry-dispatch" not in _rules_fired(
        """
        def plot(ax):
            ax.grid(True)
        """,
        module="repro.experiments.fixture",
    )


# -- no-mutable-default-args -------------------------------------------------


def test_mutable_default_rule_fires_on_list_literal():
    findings = _lint(
        """
        def collect(items=[]):
            return items
        """
    )
    assert any(f.rule == "no-mutable-default-args" for f in findings)


def test_mutable_default_rule_accepts_none_sentinel():
    assert "no-mutable-default-args" not in _rules_fired(
        """
        def collect(items=None):
            return items if items is not None else []
        """
    )


# -- no-float-equality -------------------------------------------------------


def test_float_equality_rule_fires_on_nonzero_literal():
    findings = _lint(
        """
        def check(x):
            return x == 1.5
        """
    )
    assert any(f.rule == "no-float-equality" for f in findings)


def test_float_equality_rule_exempts_zero_sentinel_and_orderings():
    assert "no-float-equality" not in _rules_fired(
        """
        def check(sigma_db, x):
            disabled = sigma_db == 0.0
            close = abs(x - 1.5) < 1e-9
            return disabled or close or x < 2.5
        """
    )


# -- deterministic-dict-iteration --------------------------------------------


def test_set_iteration_rule_fires_on_bare_set_loop():
    findings = _lint(
        """
        def walk(items):
            for item in set(items):
                yield item
        """
    )
    assert any(f.rule == "deterministic-dict-iteration" for f in findings)


def test_set_iteration_rule_accepts_sorted_sets():
    assert "deterministic-dict-iteration" not in _rules_fired(
        """
        def walk(items):
            for item in sorted(set(items)):
                yield item
            return len({x for x in items})
        """
    )


# -- suppressions ------------------------------------------------------------


def test_same_line_suppression_silences_the_named_rule():
    assert "no-unseeded-rng" not in _rules_fired(
        """
        import numpy as np
        rng = np.random.default_rng()  # simlint: disable=no-unseeded-rng
        """
    )


def test_same_line_suppression_silences_wall_clock_in_scoped_package():
    assert "no-wall-clock" not in _rules_fired(
        """
        import time
        class Simulator:
            def run(self):
                return time.time()  # simlint: disable=no-wall-clock
        """,
        module="repro.scenarios.fixture",
    )


def test_suppression_is_rule_specific():
    # Suppressing a different rule must not silence the finding.
    assert "no-unseeded-rng" in _rules_fired(
        """
        import numpy as np
        rng = np.random.default_rng()  # simlint: disable=no-wall-clock
        """
    )


def test_file_wide_suppression():
    assert "slots-hot-path" not in _rules_fired(
        """
        # simlint: disable-file=slots-hot-path
        class A:
            def __init__(self):
                self.x = 1

        class B:
            def __init__(self):
                self.y = 2
        """
    )


def test_disable_all_silences_every_rule():
    assert _rules_fired(
        """
        import numpy as np
        rng = np.random.default_rng()  # simlint: disable=all
        """
    ) == set()


def test_unknown_suppression_name_is_itself_reported():
    findings = _lint(
        """
        x = 1  # simlint: disable=no-such-rule
        """
    )
    assert any(
        f.rule == "simlint" and "no-such-rule" in f.message for f in findings
    )


# -- engine behaviour --------------------------------------------------------


def test_rules_have_unique_names_and_descriptions():
    rules = default_rules()
    names = [rule.name for rule in rules]
    assert len(names) == len(set(names))
    assert len(names) >= 7
    for rule in rules:
        assert isinstance(rule, Rule)
        assert rule.name and rule.description and rule.scopes


def test_retired_flow_rule_names_are_unregistered():
    """The whole-program rules and ``cache-key-stability`` (replaced by the
    pinned keys of ``tests/test_replay_invariants.py``) are gone: no
    registered rule carries their names, and a suppression that still names
    one is reported as unknown."""
    retired = {"seed-provenance", "determinism-reachability", "cache-key-soundness",
               "cache-key-stability"}
    assert not retired & {rule.name for rule in default_rules()}
    findings = _lint(
        """
        x = 1  # simlint: disable=determinism-reachability
        """
    )
    assert any(
        f.rule == "simlint" and "determinism-reachability" in f.message
        for f in findings
    )


def test_findings_are_sorted_and_deterministic():
    source = """
    import numpy as np

    def f(items=[]):
        return np.random.default_rng(), x == 1.5
    """
    first = _lint(source)
    second = _lint(source)
    assert [f.as_dict() for f in first] == [f.as_dict() for f in second]
    keys = [(f.path, f.line, f.col, f.rule) for f in first]
    assert keys == sorted(keys)


def test_syntax_error_surfaces_as_finding(tmp_path):
    from repro.analysis import run_checks

    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "broken.py").write_text("def f(:\n")
    run = run_checks(pkg, default_rules())
    assert run.checked_files == 1
    assert any(
        f.rule == "simlint" and "does not parse" in f.message for f in run.findings
    )


# -- baseline round-trip -----------------------------------------------------


@pytest.fixture
def sample_findings():
    return _lint(
        """
        import numpy as np
        rng = np.random.default_rng()
        """
    )


def test_baseline_round_trip(tmp_path, sample_findings):
    path = tmp_path / "baseline.json"
    note = {sample_findings[0].fingerprint: "grandfathered for the test"}
    Baseline.from_findings(sample_findings, notes=note).save(path)

    loaded = Baseline.load(path)
    comparison = loaded.compare(sample_findings)
    assert comparison.clean
    assert not comparison.stale
    assert len(comparison.baselined) == len(sample_findings)


def test_baseline_reports_new_findings(tmp_path, sample_findings):
    comparison = Baseline().compare(sample_findings)
    assert not comparison.clean
    assert [f.rule for f in comparison.new] == ["no-unseeded-rng"]


def test_baseline_detects_stale_entries(sample_findings):
    baseline = Baseline.from_findings(sample_findings, notes={})
    comparison = baseline.compare([])
    assert comparison.clean  # no new findings...
    assert comparison.stale  # ...but the baseline entry no longer matches


def test_baseline_fingerprint_tracks_the_source_line(sample_findings):
    moved = _lint(
        """
        import numpy as np

        # extra comment shifting the line number
        rng = np.random.default_rng()
        """
    )
    # Same stripped source line => same fingerprint despite the line drift.
    assert moved[0].fingerprint == sample_findings[0].fingerprint
    assert moved[0].line != sample_findings[0].line
