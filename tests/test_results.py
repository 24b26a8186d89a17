"""repro.results: columnar ResultSet construction, combinators, and storage.

The contract under test: the ResultSet is the native currency of scenario
runs; its binary form round-trips losslessly for every seeded topology; and
a cache entry written before the columnar format is evicted and re-executed
once rather than served.
"""

from __future__ import annotations

import builtins
import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.results import FLOW_COLUMNS, ResultSet
from repro.runner import BatchRunner, ResultCache, config_hash
from repro.scenarios import TOPOLOGIES, Scenario, scenario_task

from _topologies import sized


#: One cheap scenario per registered topology.
ALL_TOPOLOGY_SCENARIOS = [
    Scenario(name=f"rt-{name}", **sized(name, 9), extent_m=150.0,
             duration_s=0.1, seed=11 + i)
    for i, name in enumerate(sorted(TOPOLOGIES))
]


def small_resultset() -> ResultSet:
    return Scenario(topology="exposed_terminal", n_nodes=4, duration_s=0.2, seed=5).run()


class TestScenarioRunProducesResultSet:
    def test_native_columns_are_populated(self):
        rs = small_resultset()
        assert rs.n_flows == 2 and rs.n_scenarios == 1
        assert np.all(rs.delivered_packets >= 0)
        assert np.all(rs.offered_packets > 0)
        assert np.all(rs.sent_packets > 0)
        assert np.all(np.isfinite(rs.loss_frac))
        assert np.all((rs.loss_frac >= 0) & (rs.loss_frac <= 1))
        # delay_s carries the mean MAC enqueue-to-delivery latency
        assert np.all(np.isfinite(rs.delay_s))
        assert np.all(rs.delay_s > 0)
        # offered >= sent >= delivered along each flow
        assert np.all(rs.offered_packets >= rs.sent_packets)
        assert np.all(rs.sent_packets >= rs.delivered_packets)

    def test_offered_pps_matches_counters(self):
        rs = small_resultset()
        duration = rs.scenarios[0]["duration_s"]
        assert np.array_equal(rs.offered_pps, rs.offered_packets / duration)

    def test_summary_scalars_match_per_flow_columns(self):
        rs = small_resultset()
        meta = rs.scenarios[0]
        assert meta["total_pps"] == float(sum(rs.delivered_pps.tolist()))
        assert meta["min_flow_pps"] == rs.delivered_pps.min()
        assert meta["max_flow_pps"] == rs.delivered_pps.max()

    def test_multi_scenario_subscript_rejected(self):
        """No dict-style access at any width: scalars live in ``scenarios``,
        flow columns are attributes or :meth:`ResultSet.column` lookups."""
        single = small_resultset()
        both = ResultSet.concat([single,
                                 Scenario(topology="line", n_nodes=4,
                                          duration_s=0.1, seed=1).run()])
        for rs in (single, both):
            with pytest.raises(TypeError, match="not subscriptable"):
                rs["total_pps"]
            assert not hasattr(rs, "get")
        assert len(both.column("delivered_pps")) == both.n_flows


class TestRoundTripFidelity:
    @pytest.mark.parametrize(
        "scenario", ALL_TOPOLOGY_SCENARIOS, ids=lambda s: s.topology
    )
    def test_bytes_round_trip_every_topology(self, scenario):
        """``unpack(pack(x)) == x``, its digest bytes equal, and the packed
        bytes are reproducible."""
        rs = scenario.run()
        blob = rs.pack()
        assert ResultSet.unpack(blob) == rs
        assert ResultSet.unpack(blob).to_bytes() == rs.to_bytes()
        assert ResultSet.unpack(blob).pack() == blob
        assert [record["delivered_pps"] for record in rs.to_flow_records()] == (
            rs.delivered_pps.tolist()
        )

    def test_binary_round_trip_lossless(self, tmp_path):
        rs = ResultSet.concat([s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]])
        path = tmp_path / "sweep.bin"
        rs.save(path)
        assert path.read_bytes() == rs.pack()
        assert ResultSet.load(path) == rs

    def test_nan_scenario_metadata_equals_its_round_trips(self):
        """NaN in scenario metadata equals NaN, so a set read back from its
        packed form equals the set that was written."""
        nan = float("nan")
        for meta in ({"name": "x", "delay": nan},
                     {"name": "x", "control": [{"delay": nan, "pps": 1.0}], "seed": 3}):
            rs = ResultSet.from_flows(meta, [("a", "b")], delivered_pps=[1.0])
            assert ResultSet.unpack(rs.pack()) == rs
        nan_set = ResultSet.from_flows({"name": "x", "delay": nan}, [("a", "b")],
                                       delivered_pps=[1.0])
        for other in ({"name": "x", "delay": 1.0}, {"name": "x", "delay": None},
                      {"name": "x"}, {"name": "y", "delay": nan}):
            assert ResultSet.from_flows(other, [("a", "b")], delivered_pps=[1.0]) != nan_set

    def test_manifest_is_json_able(self):
        manifest = small_resultset().manifest()
        decoded = json.loads(json.dumps(manifest))
        assert decoded["n_flows"] == 2
        assert decoded["scenarios"][0]["topology"] == "exposed_terminal"


class TestConstructionRejectsOutOfRangeCodes:
    """Codes and scenario indices are checked when the ResultSet is built,
    not when a later decode or split trips over them."""

    @staticmethod
    def build(src=(0, 1), dst=(1, 0), idx=(0, 0)):
        return ResultSet(node_names=np.asarray(["a", "b"]), src_code=src, dst_code=dst,
                         scenario_idx=idx, scenarios=[{"name": "s"}])

    def test_in_range_codes_accepted(self):
        assert self.build().n_flows == 2

    def test_negative_scenario_idx_rejected(self):
        # Used to be accepted, and split() then silently dropped the row.
        with pytest.raises(ValueError, match=r"scenario_idx .* \[0, 1\)"):
            self.build(idx=(-1, 0))

    def test_scenario_idx_past_the_index_rejected(self):
        with pytest.raises(ValueError, match="scenario_idx"):
            self.build(idx=(0, 1))

    def test_negative_dst_code_rejected(self):
        # Used to decode to the last node name.
        with pytest.raises(ValueError, match=r"dst_code .* \[0, 2\)"):
            self.build(dst=(1, -1))

    def test_src_code_past_the_names_rejected(self):
        # Used to fail only later, inside ``.src``, with IndexError.
        with pytest.raises(ValueError, match=r"src_code .* \[0, 2\)"):
            self.build(src=(5, 0))


class TestCombinators:
    def test_concat_remaps_codes_and_offsets_scenarios(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        whole = ResultSet.concat(parts)
        assert whole.n_scenarios == 3
        assert whole.n_flows == sum(p.n_flows for p in parts)
        offset = 0
        for index, part in enumerate(parts):
            rows = whole.scenario_idx == index
            assert np.array_equal(whole.src[rows], part.src)
            assert np.array_equal(whole.delivered_pps[rows],
                                  part.delivered_pps)
            offset += part.n_flows
        assert ResultSet.concat([]) == ResultSet.empty()

    def test_filter_by_mask(self):
        rs = small_resultset()
        top = rs.filter(rs.delivered_pps >= rs.delivered_pps.max())
        assert top.n_flows == 1
        assert top.delivered_pps[0] == rs.delivered_pps.max()
        with pytest.raises(ValueError):
            rs.filter(np.asarray([True]))

    def test_group_by_flow_column_and_scenario_field(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:2]]
        whole = ResultSet.concat(parts)
        by_topology = whole.group_by("topology")
        assert set(by_topology) == {p.scenarios[0]["topology"] for p in parts}
        for name, group in by_topology.items():
            # Groups are pruned to their own scenarios, so per-group scenario
            # reductions (e.g. mean total_pps per topology) are scoped right.
            assert all(s["topology"] == name for s in group.scenarios)
            assert group.scenarios == [
                p.scenarios[0] for p in parts if p.scenarios[0]["topology"] == name
            ]
        by_dst = whole.group_by("dst")
        assert sum(g.n_flows for g in by_dst.values()) == whole.n_flows

    def test_filter_prune_scenarios_remaps_index(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        whole = ResultSet.concat(parts)
        only_last = whole.filter(whole.scenario_idx == 2, prune_scenarios=True)
        assert only_last.scenarios == [whole.scenarios[2]]
        assert np.all(only_last.scenario_idx == 0)
        assert only_last == parts[2]

    def test_split_inverts_concat(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        assert ResultSet.concat(parts).split() == parts

    def test_scenario_column(self):
        whole = ResultSet.concat([s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]])
        totals = whole.scenario_column("total_pps")
        assert totals.shape == (3,)
        assert float(totals.sum()) == sum(s["total_pps"] for s in whole.scenarios)

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            small_resultset().column("jitter")
        assert set(FLOW_COLUMNS) >= {"src", "dst", "delivered_pps", "delay_s"}


def repack(blob, header=None, body=None):
    """Re-encode a packed ResultSet after editing its JSON header or its body."""
    raw = zlib.decompress(blob)
    (length,) = struct.unpack_from("<I", raw)
    decoded = json.loads(raw[4:4 + length])
    rest = raw[4 + length:]
    if header is not None:
        header(decoded)
    if body is not None:
        rest = body(rest)
    head = json.dumps(decoded).encode("utf-8")
    return zlib.compress(struct.pack("<I", len(head)) + head + rest)


def write_npz_entry(cache, task, result):
    """Store ``result`` as the retired ``npz/1`` cache format did: a
    ``<key>.npz`` sidecar (the bytes :meth:`ResultSet.to_bytes` still
    digests) plus a manifest entry pointing at it.  Returns the sidecar."""
    path = cache._path(task.cache_key)
    path.parent.mkdir(parents=True, exist_ok=True)
    sidecar = path.with_suffix(".npz")
    sidecar.write_bytes(result.to_bytes())
    marker = {"format": "npz/1", "file": sidecar.name,
              "n_flows": result.n_flows, "n_scenarios": result.n_scenarios}
    path.write_text(json.dumps({"key": task.cache_key, "config": task.config,
                                "result": {"__repro_resultset__": marker}}))
    return sidecar


def write_two_file_entry(cache, task, result, with_sidecar, key=None):
    """Store ``result`` as older versions did: a raw ``pack()`` ``<key>.bin``
    sidecar (no envelope) and a ``<key>.json`` manifest pointing at it."""
    key = key or task.cache_key
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    if with_sidecar:
        cache._path(key, ".bin").write_bytes(result.pack())
    marker = {"format": "packed/1", "file": f"{key}.bin",
              "n_flows": result.n_flows, "n_scenarios": result.n_scenarios}
    path.write_text(json.dumps({"key": key, "config": task.config,
                                "result": {"__repro_resultset__": marker}}))


#: The first eight bytes of every ``.bin`` cache entry.
ENTRY_MAGIC = b"REPRO-RS"


def split_entry(blob):
    """A ``.bin`` cache entry's magic, JSON header and packed body."""
    magic, length = struct.unpack_from("<8sI", blob)
    return magic, json.loads(blob[12:12 + length]), blob[12 + length:]


def rewrite_entry(edit):
    """A breakage that re-encodes an entry after ``edit(magic, header, body)``."""
    def breakage(blob):
        magic, header, body = edit(*split_entry(blob))
        head = json.dumps(header).encode("utf-8")
        return struct.pack("<8sI", magic, len(head)) + head + body
    return breakage


#: Ways to break a ``.bin`` entry around its packed body; each must evict.
BROKEN_ENTRIES = {
    "bad-magic": rewrite_entry(lambda magic, header, body: (b"NOTREPRO", header, body)),
    "other-key": rewrite_entry(lambda magic, header, body: (magic, {**header, "key": "0" * 64}, body)),
    "unknown-format": rewrite_entry(
        lambda magic, header, body: (magic, {**header, "format": "packed/9"}, body)),
    "no-config": rewrite_entry(
        lambda magic, header, body: (magic, {"key": header["key"], "format": header["format"]}, body)),
    "header-not-object": rewrite_entry(lambda magic, header, body: (magic, [header], body)),
    "truncated-body": lambda blob: blob[:-len(blob) // 4],
    "truncated-header": lambda blob: blob[:20],
    "short-prefix": lambda blob: blob[:6],
    "empty": lambda blob: b"",
}


#: Ways to break a packed ResultSet; each must make ``unpack`` raise ValueError.
BROKEN_PACKINGS = {
    "garbage": lambda blob: b"\x00not an npz",
    "truncated": lambda blob: blob[: len(blob) // 2],
    "trailing-bytes": lambda blob: blob + b"\x00",
    "trailing-body": lambda blob: repack(blob, body=lambda body: body + b"\x00" * 8),
    "wrong-schema": lambda blob: repack(blob, header=lambda h: h.update(schema=2)),
    "column-length": lambda blob: repack(
        blob, header=lambda h: h.update(n_flows=h["n_flows"] + 1)),
    "object-dtype": lambda blob: repack(
        blob, header=lambda h: h["columns"].update(delay_s="object")),
    "object-names": lambda blob: repack(
        blob, header=lambda h: h["node_names"].update(dtype="|O")),
}


#: The float flow columns (the rest of ``FLOW_COLUMNS[3:]`` are int64).
FLOAT_NAMES = ("delivered_pps", "offered_pps", "loss_frac", "delay_s", "delay_p50_s",
               "delay_p99_s")


#: Node names of varying UTF-32 width (NUL is excluded: numpy strips it).
_names = st.text(st.characters(exclude_characters="\x00"), max_size=5)


@st.composite
def result_sets(draw):
    """Multi-scenario ResultSets: 0..6 flows per part, NaN/inf floats, some
    columns left to their sentinels, concatenated over 1..3 parts."""
    parts = []
    for part in range(draw(st.integers(1, 3))):
        names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
        n = draw(st.integers(0, 6))
        codes = st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)
        columns = {}
        for name in FLOW_COLUMNS[3:]:
            if draw(st.booleans()):
                values = st.floats() if name in FLOAT_NAMES else st.integers(-1, 2**62)
                columns[name] = draw(st.lists(values, min_size=n, max_size=n))
        parts.append(ResultSet(
            node_names=np.asarray(names, dtype=str),
            src_code=draw(codes), dst_code=draw(codes),
            scenario_idx=np.zeros(n, dtype=np.int32),
            scenarios=[{"name": f"part-{part}", "seed": part, "total_pps": 1.5}],
            **columns,
        ))
    return ResultSet.concat(parts)


class TestPackedFormat:
    @settings(max_examples=60, deadline=None)
    @given(result_sets())
    def test_round_trip(self, rs):
        packed = ResultSet.unpack(rs.pack())
        assert packed == rs
        assert packed.node_names.dtype == rs.node_names.dtype
        assert packed.to_bytes() == rs.to_bytes()

    @pytest.mark.parametrize("scenario", ALL_TOPOLOGY_SCENARIOS[:3], ids=lambda s: s.topology)
    def test_round_trip_simulated(self, scenario):
        rs = scenario.run()
        assert ResultSet.unpack(rs.pack()).to_bytes() == rs.to_bytes()

    def test_empty_round_trip(self):
        empty = ResultSet.empty()
        assert ResultSet.unpack(empty.pack()).to_bytes() == empty.to_bytes()

    def test_decoded_columns_own_their_memory(self):
        rs = ResultSet.unpack(small_resultset().pack())
        for name in ("node_names", "src_code", "dst_code", "scenario_idx", *FLOW_COLUMNS[3:]):
            array = getattr(rs, name)
            assert array.flags.owndata and array.base is None, name
            assert array.flags.writeable, name

    def test_missing_columns_fall_back_to_sentinels(self):
        """Additive schema: a header without an optional column still loads."""
        rs = small_resultset()
        assert list(rs.manifest()["columns"])[-1] == "queue_drops"
        blob = repack(rs.pack(), header=lambda h: h["columns"].pop("queue_drops"),
                      body=lambda body: body[:-8 * rs.n_flows])
        loaded = ResultSet.unpack(blob)
        assert np.all(loaded.queue_drops == -1)
        assert np.array_equal(loaded.delivered_pps, rs.delivered_pps)
        assert np.array_equal(loaded.hops, rs.hops)

    @pytest.mark.parametrize("corruption", BROKEN_PACKINGS)
    def test_broken_packing_raises_value_error(self, corruption):
        with pytest.raises(ValueError):
            ResultSet.unpack(BROKEN_PACKINGS[corruption](small_resultset().pack()))

    @pytest.mark.parametrize("blob", [b"", b"\x00" * 8, zlib.compress(b"\x01\x00"),
                                      zlib.compress(b"\x02\x00\x00\x00[]")])
    def test_malformed_buffers_raise_value_error(self, blob):
        with pytest.raises(ValueError):
            ResultSet.unpack(blob)


class TestCacheIntegration:
    def test_resultset_stored_as_one_entry_file(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        path = cache._path(task.cache_key, ".bin")
        assert [entry.name for entry in path.parent.iterdir()] == [path.name]
        magic, header, body = split_entry(path.read_bytes())
        assert magic == ENTRY_MAGIC
        assert header.keys() == {"key", "format", "config"}
        assert header["key"] == task.cache_key and header["format"] == "packed/1"
        assert config_hash(header["config"]) == task.cache_key
        assert body == first.results[0].pack()
        second = BatchRunner(workers=0, cache=cache).run([task])
        assert second.report.cache_hits == 1
        assert second.results == first.results
        assert isinstance(second.results[0], ResultSet)

    def test_hit_opens_exactly_one_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        result = ALL_TOPOLOGY_SCENARIOS[0].run()
        cache.put(task.cache_key, {"fn": task.fn, "config": task.config}, result)
        opened = []

        def recording(real_open):
            def recording_open(file, *args, **kwargs):
                opened.append(str(file))
                return real_open(file, *args, **kwargs)
            return recording_open

        monkeypatch.setattr(builtins, "open", recording(builtins.open))
        monkeypatch.setattr(os, "open", recording(os.open))
        entry = cache.get(task.cache_key)
        monkeypatch.undo()
        assert entry["result"] == result
        assert [path for path in opened if path.startswith(str(tmp_path))] == [
            str(cache._path(task.cache_key, ".bin"))]
        assert cache.hits == 1 and cache.misses == 0

    @pytest.mark.parametrize("sidecar", ["packed", "missing"])
    def test_two_file_entry_of_older_versions_evicts_and_reexecutes(self, tmp_path, sidecar):
        """The manifest-plus-raw-``.bin`` entry older versions wrote misses,
        leaves no ``<key>.*`` file (with or without its sidecar), and the task
        re-executes once."""
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        result = ALL_TOPOLOGY_SCENARIOS[0].run()
        write_two_file_entry(cache, task, result, with_sidecar=sidecar == "packed")
        assert cache.get(task.cache_key) is None
        assert list(cache.root.rglob(f"{task.cache_key}.*")) == []
        rerun = BatchRunner(workers=0, cache=cache).run([task])
        assert rerun.report.executed == 1 and rerun.report.cache_hits == 0
        replay = BatchRunner(workers=0, cache=cache).run([task])
        assert replay.report.cache_hits == 1
        assert replay.results == [result]

    @pytest.mark.parametrize("breakage", BROKEN_ENTRIES)
    def test_broken_entry_evicted_and_reexecuted(self, tmp_path, breakage):
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        path = cache._path(task.cache_key, ".bin")
        path.write_bytes(BROKEN_ENTRIES[breakage](path.read_bytes()))
        assert cache.get(task.cache_key) is None
        assert (cache.hits, cache.misses) == (0, 2)  # the first run's miss, then this one
        assert list(cache.root.rglob(f"{task.cache_key}.*")) == []
        retry = BatchRunner(workers=0, cache=cache).run([task])
        assert retry.report.executed == 1
        assert retry.results == first.results

    def test_len_and_contains_count_both_entry_kinds(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        result = ALL_TOPOLOGY_SCENARIOS[0].run()
        columnar, inline, legacy, absent = task.cache_key, "ab" * 32, "cd" * 32, "ef" * 32
        cache.put(columnar, {"fn": task.fn, "config": task.config}, result)
        cache.put(inline, {"x": 1}, {"y": 2})
        # An older two-file entry is one key, not two.
        write_two_file_entry(cache, scenario_task(ALL_TOPOLOGY_SCENARIOS[1]), result,
                             with_sidecar=True, key=legacy)
        assert len(cache) == 3
        assert columnar in cache and inline in cache and legacy in cache
        assert absent not in cache

    def test_put_leaves_one_entry_file_per_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = small_resultset()
        key = "ab" * 32
        cache.put(key, {"x": 1}, {"y": 2})
        cache.put(key, {"x": 1}, result)
        assert [path.name for path in cache.root.rglob("*.*")] == [f"{key}.bin"]
        assert cache.get_result(key) == result
        cache.put(key, {"x": 1}, {"y": 3})
        assert [path.name for path in cache.root.rglob("*.*")] == [f"{key}.json"]
        assert cache.get_result(key) == {"y": 3}

    def test_old_format_json_entry_evicted_and_reexecuted(self, tmp_path):
        """A pre-columnar cache entry (inline dict result) is unusable like
        any other: evicted, re-executed once, then served as a hit."""
        cache = ResultCache(tmp_path / "cache")
        scenarios = ALL_TOPOLOGY_SCENARIOS[:2]
        task = scenario_task(scenarios[0])
        stale = {"name": scenarios[0].name, "total_pps": 1.0, "per_flow_pps": {"a->b": 1.0}}
        # Write the entry exactly as the pre-columnar cache did: inline JSON.
        path = cache._path(task.cache_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"key": task.cache_key, "config": {"fn": task.fn, "config": task.config},
             "result": stale}
        ))
        tasks = [task, scenario_task(scenarios[1])]
        first = BatchRunner(workers=0, cache=cache).run(tasks)
        assert first.report.executed == 2 and first.report.cache_hits == 0
        assert not path.exists()
        again = BatchRunner(workers=0, cache=cache).run(tasks)
        assert again.report.executed == 0 and again.report.cache_hits == 2
        fresh = ResultSet.concat([scenario.run() for scenario in scenarios])
        assert ResultSet.concat(again.results) == fresh

    @pytest.mark.parametrize("corruption", [*BROKEN_PACKINGS, "missing"])
    def test_corrupt_binary_sidecar_evicted_and_reexecuted(self, tmp_path, corruption):
        """An entry whose packed body ``unpack`` rejects, however it is broken,
        evicts rather than crashes; a deleted entry is a plain miss."""
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        path = cache._path(task.cache_key, ".bin")
        if corruption == "missing":
            path.unlink()
        else:
            breakage = rewrite_entry(lambda magic, header, body: (
                magic, header, BROKEN_PACKINGS[corruption](body)))
            path.write_bytes(breakage(path.read_bytes()))
        assert cache.get(task.cache_key) is None
        assert list(cache.root.rglob("*.*")) == []
        retry = BatchRunner(workers=0, cache=cache).run([task])
        assert retry.report.executed == 1
        assert retry.results == first.results

    def test_legacy_npz_entry_evicts_and_reexecutes(self, tmp_path):
        """An entry written the retired ``npz/1`` way misses, leaves no
        ``.npz`` behind, and the re-put entry hits."""
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        result = ALL_TOPOLOGY_SCENARIOS[0].run()
        sidecar = write_npz_entry(cache, task, result)
        rerun = BatchRunner(workers=0, cache=cache).run([task])
        assert rerun.report.executed == 1 and rerun.report.cache_hits == 0
        assert not sidecar.exists()
        assert list((tmp_path / "cache").rglob("*.npz")) == []
        replay = BatchRunner(workers=0, cache=cache).run([task])
        assert replay.report.cache_hits == 1
        assert replay.results == [result]

    @pytest.mark.parametrize("legacy", [False, True], ids=["packed", "npz"])
    def test_eviction_removes_whichever_sidecar_exists(self, tmp_path, legacy):
        """An unusable entry evicts every ``<key>.*`` file: a ``.bin`` entry
        with a broken magic, or a retired ``npz/1`` manifest and its
        ``.npz`` sidecar."""
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        result = ALL_TOPOLOGY_SCENARIOS[0].run()
        if legacy:
            sidecar = write_npz_entry(cache, task, result)
            cache._path(task.cache_key).write_text("{not json")
        else:
            cache.put(task.cache_key, {"fn": task.fn, "config": task.config}, result)
            sidecar = cache._path(task.cache_key, ".bin")
            sidecar.write_bytes(b"NOTREPRO" + sidecar.read_bytes()[8:])
        assert cache.get(task.cache_key) is None
        assert not sidecar.exists()
        assert list((tmp_path / "cache").rglob("*.*")) == []

    def test_unknown_sidecar_format_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        result = ALL_TOPOLOGY_SCENARIOS[0].run()
        cache.put(task.cache_key, {"fn": task.fn, "config": task.config}, result)
        path = cache._path(task.cache_key, ".bin")
        path.write_bytes(path.read_bytes().replace(b'"packed/1"', b'"packed/9"'))
        assert cache.get(task.cache_key) is None
        assert not path.exists()

    def test_columnar_results_identical_across_worker_pool(self, tmp_path):
        tasks = [scenario_task(s) for s in ALL_TOPOLOGY_SCENARIOS]
        assert len(tasks) == 8
        serial = BatchRunner(workers=0).run(tasks)
        pooled = BatchRunner(workers=2).run(tasks)
        assert pooled.results == serial.results
