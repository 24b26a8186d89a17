"""Runtime guards for three replay invariants no per-file lint rule can see.

* **Every scenario field reaches the cache key.**  Two scenarios differing
  in any one field must hash to different result-cache keys, and the
  plain-dict form must rebuild the same spec; otherwise the cache would
  serve one scenario's results for the other.
  The ``testbed`` topology's station list is its whole layout, so any
  change to it changes the key too, and the testbed campaigns with equal
  parameters run the same keys.
* **Existing cache keys never change.**  Literal keys are pinned for the
  default spec and for one spec per field group that ``as_config()`` omits
  while unset, so a new field emitted as ``None``, or any other change to
  the key of a scenario that already ran, fails until it is re-pinned on
  purpose.  Otherwise every result cache on disk would silently re-execute.
* **No state survives from one run into the next.**  A module-level cache
  or counter that a run writes and a later run reads makes results depend
  on what ran before them in the same process (a warm worker, a sweep).
  Replaying every topology around an unrelated run must give equal
  ``ResultSet``s.

Each check also runs against a fault planted with ``monkeypatch`` (a field
dropped from ``as_config()``, an extra ``None`` key in it, a memo shared
across runs), so a check that stops seeing its fault fails here too.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

import repro.experiments  # noqa: F401 -- registers the builtin experiments
from repro.api import EXPERIMENTS
from repro.scenarios import TOPOLOGIES, Scenario
from repro.scenarios.execute import scenario_task

from _topologies import sized

#: A small base spec; each variant changes one field from it.
BASE = Scenario(n_nodes=4, duration_s=0.02)

#: field -> (overrides the field needs to be valid, a non-default value).
#: Every ``Scenario`` field must appear here: a new field without an entry
#: fails the test below until it has one.
VARIANTS = {
    "name": ({}, "other"),
    "topology": ({}, "grid"),
    "n_nodes": ({}, 6),
    "extent_m": ({}, 150.0),
    "seed": ({}, 1),
    "topology_params": ({}, {"link_range_frac": 0.3}),
    "alpha": ({}, 3.0),
    "sigma_db": ({}, 6.0),
    "frequency_hz": ({}, 2.4e9),
    "tx_power_dbm": ({}, 10.0),
    "reference_distance_m": ({}, 10.0),
    "reference_loss_db": ({}, 70.0),
    "traffic": ({}, "poisson"),
    "offered_load_pps": ({}, 100.0),
    "payload_bytes": ({}, 500),
    "traffic_params": ({"traffic": "poisson"}, {"queue_limit": 50}),
    "mac": ({}, "tdma"),
    "mac_params": ({}, {"cw_min": 31}),
    "cca_threshold_dbm": ({}, None),
    "cca_noise_db": ({}, 0.0),
    "rate_mbps": ({}, 12.0),
    "use_acks": ({}, True),
    "use_rts_cts": ({}, True),
    "tdma_slot_s": ({}, 0.01),
    "detectability_margin_db": ({}, None),
    "routing": ({}, "shortest_path"),
    "queue_capacity": ({"routing": "shortest_path"}, 8),
    "routing_params": ({"routing": "shortest_path"}, {"link_margin_db": 3.0}),
    "controller": ({}, "hysteresis"),
    "controller_params": ({"controller": "hysteresis"}, {"step_db": 2.0}),
    "control_epoch_s": ({"controller": "hysteresis"}, 0.01),
    "duration_s": ({}, 0.03),
}


def _cache_key_faults(names):
    """(fields that leave the cache key unchanged, fields lost in the
    ``as_config()`` round trip) among ``names``."""
    unkeyed, lost = [], []
    for name in names:
        overrides, value = VARIANTS[name]
        base = BASE.with_overrides(**overrides)
        variant = base.with_overrides(**{name: value})
        assert getattr(base, name) != value, name
        variant.run()  # the value is a valid one, not just a distinct one
        if scenario_task(variant).cache_key == scenario_task(base).cache_key:
            unkeyed.append(name)
        if Scenario.from_config(variant.as_config()) != variant:
            lost.append(name)
    return unkeyed, lost


def _drop_from_as_config(monkeypatch, name):
    shipped = Scenario.as_config

    def as_config(self):
        config = shipped(self)
        config.pop(name, None)
        return config

    monkeypatch.setattr(Scenario, "as_config", as_config)


def test_every_scenario_field_reaches_the_cache_key():
    names = [f.name for f in fields(Scenario)]
    assert sorted(VARIANTS) == sorted(names), "give every Scenario field a VARIANTS entry"
    unkeyed, lost = _cache_key_faults(names)
    assert unkeyed == [], f"fields that do not change the cache key: {unkeyed}"
    assert lost == [], f"fields lost in the as_config() round trip: {lost}"


#: A field to drop from ``as_config()``, by where a run reads it:
#: ``topology_params`` only in the topology builder, ``controller_params``
#: only in ``Scenario._run_controlled``, which ``run()`` reaches via ``self``.
_DROPPED = {"topology_builder": "topology_params", "self_method_call": "controller_params"}


@pytest.mark.parametrize("reader", sorted(_DROPPED))
def test_cache_key_check_catches_field_dropped_from_as_config(monkeypatch, reader):
    name = _DROPPED[reader]
    _drop_from_as_config(monkeypatch, name)
    assert _cache_key_faults([name]) == ([name], [name])


def test_cache_key_check_passes_fields_still_in_as_config(monkeypatch):
    """Dropping one field does not make the check flag the fields the same
    topology builder reads that ``as_config()`` still covers."""
    _drop_from_as_config(monkeypatch, "topology_params")
    assert _cache_key_faults(["topology", "n_nodes", "extent_m", "seed"]) == ([], [])


#: Spec -> its pinned ``scenario_task(spec).cache_key``: the default spec,
#: then one spec per group of fields ``as_config()`` omits while unset.
PINNED_KEYS = {
    "default": (
        Scenario(),
        "3589a4e50c60adaddedfb462827c364f5bbd7f7623735c9304e497db9fed63be",
    ),
    "routing": (
        Scenario(routing="shortest_path", queue_capacity=8),
        "8e37b0d701e145032f7f10dd1391b8242a4c61a6df61d34a09079b12b1eb4f7d",
    ),
    "controller": (
        Scenario(controller="hysteresis", control_epoch_s=0.01),
        "517cc3fe63dd7c40633bcc0d72750d8bbae491eeb935ea256389b83efa477469",
    ),
    "traffic_params": (
        Scenario(traffic="poisson", traffic_params={"queue_limit": 50}),
        "a4d412402771f42cb8d172c6b23d3b79fb4c334567c7dfd7690bb452cceb6bd4",
    ),
    "mac_params": (
        Scenario(mac_params={"cw_min": 31}),
        "2fd257237073cbcb7b56a3f913c5c5598d39741aaeb4fb2377f5a520fe32b20a",
    ),
    "routing_params": (
        Scenario(routing="shortest_path", routing_params={"link_margin_db": 3.0}),
        "7560053a9cfed4606bd9cabd1567b9cadcfdb3c04d39a4f61c57e080f4fc44dc",
    ),
    "controller_params": (
        Scenario(controller="hysteresis", controller_params={"step_db": 2.0}),
        "1902cb325d28f27f6d387495fd1bf2cd116929e356098c661a55b18e93d097ec",
    ),
}


#: Four stations of the office layout, as two competing pairs.
TESTBED_NODES = ["n20", "n37", "n13", "n18"]


def test_testbed_station_choice_reaches_the_cache_key():
    """The ``testbed`` placement is named by its station list alone, so
    every change to it -- pair order, link direction, one station -- must
    change the key."""
    base = Scenario(topology="testbed", n_nodes=4, topology_params={"nodes": TESTBED_NODES})
    variants = [
        TESTBED_NODES,
        ["n13", "n18", "n20", "n37"],
        ["n37", "n20", "n13", "n18"],
        ["n20", "n37", "n13", "n19"],
    ]
    keys = {
        scenario_task(base.with_overrides(topology_params={"nodes": nodes})).cache_key
        for nodes in variants
    }
    assert len(keys) == len(variants)


def test_testbed_campaigns_with_equal_parameters_share_every_key(tmp_path):
    """``figures-10-11`` and ``section-5`` run the same scenarios: the
    second finds every one of its keys in the first one's cache."""
    params = dict(n_combinations=2, run_duration_s=0.05, rates_mbps=(6.0, 12.0), seed=3,
                  cache_dir=str(tmp_path))
    EXPERIMENTS["figures-10-11"].run(**params)
    keys = sorted(path.name for path in tmp_path.rglob("*.*"))
    shared = EXPERIMENTS["section-5"].run(**params)
    assert sorted(path.name for path in tmp_path.rglob("*.*")) == keys
    assert len(keys) == 2 * 2 * 4
    assert any(": 0 executed," in note for note in shared.notes)


def _changed_keys():
    """Names of the pinned specs whose cache key no longer matches its pin."""
    return [
        name for name, (spec, key) in PINNED_KEYS.items()
        if scenario_task(spec).cache_key != key
    ]


def test_pinned_cache_keys_unchanged():
    assert _changed_keys() == [], "cache keys changed: every cached result would re-execute"


def test_cache_key_pin_catches_extra_none_key(monkeypatch):
    """A new field emitted as ``None`` instead of omitted while unset
    changes the key of every spec."""
    shipped = Scenario.as_config

    def as_config(self):
        config = shipped(self)
        config["new_field"] = None
        return config

    monkeypatch.setattr(Scenario, "as_config", as_config)
    assert _changed_keys() == list(PINNED_KEYS)


def _replay_mismatches():
    """Topologies whose replay, after an unrelated run, differs from their
    first run in the same process."""
    topologies = sorted(TOPOLOGIES)
    specs = {
        name: Scenario(**sized(name, 8), duration_s=0.05, sigma_db=6.0)
        for name in topologies
    }
    first = {name: specs[name].run() for name in topologies}
    # Unrelated, but through the same layers (shadowing included).
    Scenario(
        topology="scale_free", mac="tdma", n_nodes=30, duration_s=0.05, sigma_db=6.0
    ).run()
    again = {name: specs[name].run() for name in reversed(topologies)}
    assert len(first) == 8
    return [name for name in topologies if again[name] != first[name]]


def _memoise_positions(monkeypatch, memo_for_call):
    """Route every placement through a node-id -> position memo that is
    refreshed whenever a placement brings a node id it has not seen."""
    shipped = Scenario.placement

    def placement(self):
        fresh = shipped(self)
        memo = memo_for_call()
        if not set(fresh.positions) <= set(memo):
            memo.update(fresh.positions)
        return replace(fresh, positions={node: memo[node] for node in fresh.positions})

    monkeypatch.setattr(Scenario, "placement", placement)


def test_runs_leave_no_state_for_later_runs():
    assert _replay_mismatches() == []


def test_isolation_check_catches_module_level_cache(monkeypatch):
    """A memo shared by every run (keyed by node id, forgetting the
    topology) hands later runs the positions an earlier one left behind."""
    shared = {}
    _memoise_positions(monkeypatch, lambda: shared)
    assert _replay_mismatches() != []


def test_isolation_check_accepts_per_run_local_cache(monkeypatch):
    """The same memo built afresh for each placement carries nothing over."""
    _memoise_positions(monkeypatch, dict)
    assert _replay_mismatches() == []
