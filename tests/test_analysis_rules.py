"""Fixture tests for every simlint rule: one firing and one non-firing
source per rule, plus suppression-comment and engine coverage.

These are the tests that keep the lint gate honest: a rule that silently
stops firing (or starts flagging the sanctioned idiom) fails here long
before it misgates a real PR.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import check_source, check_sources, default_rules
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


# -- repro.control scope coverage --------------------------------------------
#
# The closed-loop control plane holds the same determinism bar as the
# simulation core: wall clocks are flagged inside repro.control, and the
# sim clock stays quiet there.


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
    assert names == ["no-unseeded-rng", "no-wall-clock", "deterministic-dict-iteration"]
    for rule in rules:
        assert isinstance(rule, Rule)
        assert rule.name and rule.description and rule.scopes


def test_retired_flow_rule_names_are_unregistered():
    """The whole-program rules, ``cache-key-stability`` (replaced by the
    pinned keys of ``tests/test_replay_invariants.py``), ``slots-hot-path``
    (replaced by its ``__slots__`` test) and the rules outside the
    determinism closure are gone: no registered rule carries their names,
    and a suppression that still names one is reported as unknown.  So is
    the retired ``disable=all`` form, which no longer silences anything."""
    retired = ["seed-provenance", "determinism-reachability", "cache-key-soundness",
               "cache-key-stability", "slots-hot-path", "registry-dispatch",
               "no-mutable-default-args", "no-float-equality"]
    assert not set(retired) & {rule.name for rule in default_rules()}
    findings = _lint(
        f"""
        import numpy as np
        x = 1  # simlint: disable={",".join(retired)}
        rng = np.random.default_rng()  # simlint: disable=all
        """
    )
    unknown = [f.message for f in findings if f.rule == "simlint"]
    for name in [*retired, "all"]:
        assert any(repr(name) in message for message in unknown), name
    assert "no-unseeded-rng" in {f.rule for f in findings}


def test_findings_are_sorted_and_deterministic():
    source = """
    import time
    import numpy as np

    def f(items):
        for item in set(items):
            yield np.random.default_rng(), time.time()
    """
    first = _lint(source)
    second = _lint(source)
    assert len(first) == 3
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
