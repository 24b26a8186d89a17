"""Typed columnar results: the native currency of scenario sweeps.

A :class:`ResultSet` is a struct-of-numpy-arrays over per-flow records --
src/dst (categorically encoded against a shared node-name table), offered and
delivered throughput, packet counts, loss, and a reserved delay column --
plus a scenario index: one JSON-able metadata dict per scenario (name,
topology, seed, summary scalars, events processed) that every flow row
points into via ``scenario_idx``.

It is what :meth:`repro.scenarios.Scenario.run` returns and what every sweep
concatenates.  Flow columns are attributes (``rs.delivered_pps``) or
:meth:`column` lookups; scenario-level scalars live in ``rs.scenarios``
(``rs.scenarios[0]["total_pps"]``); :meth:`to_flow_records` gives the
row-oriented JSON-able form.

A ResultSet is stored in one form: :meth:`pack` / :meth:`unpack`, one
zlib-compressed buffer of a JSON header (:meth:`manifest` plus the node-name
dtype) and the raw column bytes.  The :class:`repro.runner.cache.ResultCache`
entries and the experiment-artifact sidecars (:meth:`save` / :meth:`load`)
both hold it, so a read is one decompress and one JSON parse.
:meth:`to_bytes` is a digest-only form with no reader: the pinned result
digests hash it.

Columnar storage is what shrinks both cache files and worker->parent pipe
traffic on large sweeps (the arrays pickle as flat buffers).

Operations (:meth:`concat`, :meth:`filter`, :meth:`group_by`,
:meth:`scenario_column`) are vectorized over the columns, so sweep-level
aggregation is a handful of array reductions rather than a Python loop over
nested dicts.
"""

from __future__ import annotations

import io
import json
import math
import re
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["ResultSet", "FLOW_COLUMNS", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

#: Float flow columns (NaN = not measured).
#: ``delay_p50_s`` / ``delay_p99_s`` are reservoir-estimated delay
#: percentiles (see :class:`repro.simulation.stats.DelayReservoir`).
_FLOAT_COLUMNS = (
    "delivered_pps", "offered_pps", "loss_frac", "delay_s",
    "delay_p50_s", "delay_p99_s",
)

#: Integer flow columns (-1 = not measured).  ``hops`` is the routed path
#: length in MAC hops (1 for direct single-hop flows); ``queue_drops``
#: counts forwarding-queue rejections attributed to the flow (0 without a
#: networking layer).
_INT_COLUMNS = (
    "delivered_packets", "offered_packets", "sent_packets",
    "hops", "queue_drops",
)

#: Public flow-column names, including the decoded string columns.
FLOW_COLUMNS = ("src", "dst", "scenario_idx") + _FLOAT_COLUMNS + _INT_COLUMNS

#: Every stored array column and its dtype, in manifest (and packed body) order.
_COLUMN_DTYPES: Dict[str, str] = {
    "src_code": "int32", "dst_code": "int32", "scenario_idx": "int32",
    **{name: "float64" for name in _FLOAT_COLUMNS},
    **{name: "int64" for name in _INT_COLUMNS},
}

#: The byte-order-explicit form of each column dtype in the packed body.
_PACKED_DTYPES = {"int32": np.dtype("<i4"), "float64": np.dtype("<f8"), "int64": np.dtype("<i8")}

#: Built once: every cache hit constructs a ResultSet.
_I32, _I64, _F64, _U32 = (np.dtype(kind) for kind in (np.int32, np.int64, np.float64, np.uint32))

_HEADER_LENGTH = struct.Struct("<I")


def _meta_equal(a: Any, b: Any) -> bool:
    """``a == b`` over JSON-like scenario metadata, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_meta_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)) and type(a) is type(b):
        return len(a) == len(b) and all(map(_meta_equal, a, b))
    return bool(a == b)


class ResultSet:
    """Columnar per-flow results for one or many scenarios.

    Construct via :meth:`from_flows`, :meth:`concat`, or the producers
    (:meth:`repro.scenarios.Scenario.run`, :class:`repro.api.Study`); the raw
    ``__init__`` takes pre-built arrays.
    """

    __slots__ = (
        "node_names", "src_code", "dst_code", "scenario_idx",
        "delivered_pps", "offered_pps", "loss_frac", "delay_s",
        "delay_p50_s", "delay_p99_s",
        "delivered_packets", "offered_packets", "sent_packets",
        "hops", "queue_drops",
        "scenarios",
    )

    def __init__(
        self,
        node_names: np.ndarray,
        src_code: np.ndarray,
        dst_code: np.ndarray,
        scenario_idx: np.ndarray,
        scenarios: Sequence[Dict[str, Any]],
        **columns: np.ndarray,
    ) -> None:
        self.node_names = np.asarray(node_names)
        self.src_code = np.asarray(src_code, _I32)
        self.dst_code = np.asarray(dst_code, _I32)
        self.scenario_idx = np.asarray(scenario_idx, _I32)
        self.scenarios = list(scenarios)
        n = len(self.src_code)
        for name in _FLOAT_COLUMNS:
            value = columns.pop(name, None)
            setattr(self, name, np.full(n, np.nan) if value is None
                    else np.asarray(value, _F64))
        for name in _INT_COLUMNS:
            value = columns.pop(name, None)
            setattr(self, name, np.full(n, -1, dtype=np.int64) if value is None
                    else np.asarray(value, _I64))
        if columns:
            raise TypeError(f"unknown flow columns: {sorted(columns)}")
        for name in ("dst_code", "scenario_idx", *_FLOAT_COLUMNS, *_INT_COLUMNS):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} has {len(getattr(self, name))} rows, expected {n}")
        if n:
            # Viewed as uint32, a negative int32 code is >= 2**31, so one max()
            # per column checks both ends of the range.
            for name, bound, what in (
                ("src_code", len(self.node_names), "node names"),
                ("dst_code", len(self.node_names), "node names"),
                ("scenario_idx", len(self.scenarios), "scenarios"),
            ):
                if int(np.maximum.reduce(getattr(self, name).view(_U32))) >= bound:
                    raise ValueError(f"{name} holds a value outside [0, {bound}) ({bound} {what})")

    # -- basic shape -----------------------------------------------------------

    @property
    def n_flows(self) -> int:
        return len(self.src_code)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    def __len__(self) -> int:
        return self.n_flows

    @property
    def src(self) -> np.ndarray:
        """Decoded sender names, one per flow row."""
        return self.node_names[self.src_code] if self.n_flows else np.asarray([], dtype=str)

    @property
    def dst(self) -> np.ndarray:
        """Decoded receiver names, one per flow row."""
        return self.node_names[self.dst_code] if self.n_flows else np.asarray([], dtype=str)

    def column(self, name: str) -> np.ndarray:
        """A flow column by name (``src``/``dst`` decode to strings)."""
        if name == "src":
            return self.src
        if name == "dst":
            return self.dst
        if name in ("scenario_idx",) + _FLOAT_COLUMNS + _INT_COLUMNS:
            return getattr(self, name)
        raise KeyError(f"unknown flow column {name!r} (known: {', '.join(FLOW_COLUMNS)})")

    def scenario_column(self, field: str) -> np.ndarray:
        """A scenario-index field as an array, one entry per scenario."""
        return np.asarray([entry.get(field) for entry in self.scenarios])

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls) -> "ResultSet":
        return cls(
            node_names=np.asarray([], dtype="U1"),
            src_code=np.asarray([], dtype=np.int32),
            dst_code=np.asarray([], dtype=np.int32),
            scenario_idx=np.asarray([], dtype=np.int32),
            scenarios=[],
        )

    @classmethod
    def from_flows(
        cls,
        scenario_meta: Mapping[str, Any],
        flows: Sequence[Tuple[Any, Any]],
        **columns: Sequence[float],
    ) -> "ResultSet":
        """A single-scenario ResultSet from (src, dst) pairs plus columns."""
        names: Dict[str, int] = {}
        src_code = np.empty(len(flows), dtype=np.int32)
        dst_code = np.empty(len(flows), dtype=np.int32)
        for row, (src, dst) in enumerate(flows):
            src_code[row] = names.setdefault(str(src), len(names))
            dst_code[row] = names.setdefault(str(dst), len(names))
        return cls(
            node_names=np.asarray(list(names), dtype=str),
            src_code=src_code,
            dst_code=dst_code,
            scenario_idx=np.zeros(len(flows), dtype=np.int32),
            scenarios=[dict(scenario_meta)],
            **columns,
        )

    # -- row form --------------------------------------------------------------

    def to_flow_records(self) -> List[Dict[str, Any]]:
        """Row-oriented records with every column (the JSON-able full schema)."""
        src = self.src
        dst = self.dst
        records = []
        for row in range(self.n_flows):
            records.append({
                "src": str(src[row]),
                "dst": str(dst[row]),
                "scenario_idx": int(self.scenario_idx[row]),
                "delivered_pps": float(self.delivered_pps[row]),
                "offered_pps": float(self.offered_pps[row]),
                "loss_frac": float(self.loss_frac[row]),
                "delay_s": float(self.delay_s[row]),
                "delay_p50_s": float(self.delay_p50_s[row]),
                "delay_p99_s": float(self.delay_p99_s[row]),
                "delivered_packets": int(self.delivered_packets[row]),
                "offered_packets": int(self.offered_packets[row]),
                "sent_packets": int(self.sent_packets[row]),
                "hops": int(self.hops[row]),
                "queue_drops": int(self.queue_drops[row]),
            })
        return records

    def _rows_by_scenario(self) -> List[np.ndarray]:
        order = np.argsort(self.scenario_idx, kind="stable")
        boundaries = np.searchsorted(
            self.scenario_idx[order], np.arange(self.n_scenarios + 1)
        )
        return [
            order[boundaries[i]:boundaries[i + 1]] for i in range(self.n_scenarios)
        ]

    # -- combinators -----------------------------------------------------------

    @classmethod
    def concat(cls, parts: Iterable["ResultSet"]) -> "ResultSet":
        """Concatenate ResultSets: scenarios append, codes are remapped."""
        parts = [part for part in parts if part is not None]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        names: Dict[str, int] = {}
        remapped_src: List[np.ndarray] = []
        remapped_dst: List[np.ndarray] = []
        shifted_idx: List[np.ndarray] = []
        scenarios: List[Dict[str, Any]] = []
        for part in parts:
            mapping = np.empty(len(part.node_names), dtype=np.int32)
            for code, name in enumerate(part.node_names):
                mapping[code] = names.setdefault(str(name), len(names))
            remapped_src.append(mapping[part.src_code] if part.n_flows else part.src_code)
            remapped_dst.append(mapping[part.dst_code] if part.n_flows else part.dst_code)
            shifted_idx.append(part.scenario_idx + len(scenarios))
            scenarios.extend(part.scenarios)
        columns = {
            name: np.concatenate([getattr(part, name) for part in parts])
            for name in _FLOAT_COLUMNS + _INT_COLUMNS
        }
        return cls(
            node_names=np.asarray(list(names), dtype=str),
            src_code=np.concatenate(remapped_src),
            dst_code=np.concatenate(remapped_dst),
            scenario_idx=np.concatenate(shifted_idx),
            scenarios=scenarios,
            **columns,
        )

    def filter(self, mask: np.ndarray, prune_scenarios: bool = False) -> "ResultSet":
        """The flow rows selected by a boolean mask.

        By default the scenario index is kept whole (rows are a view into
        the same sweep); ``prune_scenarios=True`` drops scenarios left with
        no rows and remaps ``scenario_idx``, which is what
        :meth:`group_by` uses so per-group scenario reductions cover only
        that group.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_flows,):
            raise ValueError(f"mask must have shape ({self.n_flows},)")
        scenario_idx = self.scenario_idx[mask]
        scenarios = self.scenarios
        if prune_scenarios:
            kept = np.unique(scenario_idx)
            scenarios = [self.scenarios[i] for i in kept.tolist()]
            scenario_idx = np.searchsorted(kept, scenario_idx).astype(np.int32)
        columns = {name: getattr(self, name)[mask] for name in _FLOAT_COLUMNS + _INT_COLUMNS}
        return ResultSet(
            node_names=self.node_names,
            src_code=self.src_code[mask],
            dst_code=self.dst_code[mask],
            scenario_idx=scenario_idx,
            scenarios=scenarios,
            **columns,
        )

    def group_by(self, field: str) -> Dict[Any, "ResultSet"]:
        """Split by a flow column or a scenario-index field.

        Flow columns (``src``, ``dst``, ``scenario_idx``, ...) group rows
        directly; scenario fields (``topology``, ``seed``, ...) group rows by
        their owning scenario's value.  Keys appear in first-seen row order,
        and each group's scenario index is pruned to the scenarios that
        actually contribute rows.
        """
        try:
            values = self.column(field)
        except KeyError:
            per_scenario = self.scenario_column(field)
            values = per_scenario[self.scenario_idx] if self.n_flows else per_scenario[:0]
        groups: Dict[Any, List[int]] = {}
        for row, value in enumerate(values):
            key = value.item() if isinstance(value, np.generic) else value
            groups.setdefault(key, []).append(row)
        out: Dict[Any, ResultSet] = {}
        for key, rows in groups.items():
            mask = np.zeros(self.n_flows, dtype=bool)
            mask[rows] = True
            out[key] = self.filter(mask, prune_scenarios=True)
        return out

    def split(self) -> List["ResultSet"]:
        """One single-scenario ResultSet per scenario, in index order."""
        out = []
        for index, rows in enumerate(self._rows_by_scenario()):
            mask = np.zeros(self.n_flows, dtype=bool)
            mask[rows] = True
            filtered = self.filter(mask)
            out.append(ResultSet(
                node_names=filtered.node_names,
                src_code=filtered.src_code,
                dst_code=filtered.dst_code,
                scenario_idx=np.zeros(int(mask.sum()), dtype=np.int32),
                scenarios=[self.scenarios[index]],
                **{name: getattr(filtered, name) for name in _FLOAT_COLUMNS + _INT_COLUMNS},
            ))
        return out

    # -- equality --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        if not _meta_equal(self.scenarios, other.scenarios):
            return False
        if self.n_flows != other.n_flows:
            return False
        if not (
            np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.scenario_idx, other.scenario_idx)
        ):
            return False
        for name in _FLOAT_COLUMNS:
            if not np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True):
                return False
        for name in _INT_COLUMNS:
            if not np.array_equal(getattr(self, name), getattr(other, name)):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]  # mutable container semantics

    def __repr__(self) -> str:
        return (
            f"ResultSet(n_flows={self.n_flows}, n_scenarios={self.n_scenarios}, "
            f"nodes={len(self.node_names)})"
        )

    # -- (de)serialisation -----------------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        """JSON-able description: schema, shapes, dtypes, scenario index."""
        return {
            "schema": SCHEMA_VERSION,
            "n_flows": self.n_flows,
            "n_scenarios": self.n_scenarios,
            # The constructor casts every column to its dtype in this table.
            "columns": dict(_COLUMN_DTYPES),
            "scenarios": self.scenarios,
        }

    def save(self, path: Any) -> None:
        """Write :meth:`pack` output to ``path``."""
        Path(path).write_bytes(self.pack())

    @classmethod
    def load(cls, path: Any) -> "ResultSet":
        """Read a file written by :meth:`save`."""
        return cls.unpack(Path(path).read_bytes())

    def to_bytes(self) -> bytes:
        """A compressed ``.npz`` of the columns and the JSON manifest.

        Digest-only: the pinned result digests hash these bytes, and nothing
        reads them back.  Stored results use :meth:`pack`.
        """
        manifest_bytes = json.dumps(self.manifest(), sort_keys=True).encode("utf-8")
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            manifest=np.frombuffer(manifest_bytes, dtype=np.uint8),
            node_names=self.node_names,
            src_code=self.src_code,
            dst_code=self.dst_code,
            scenario_idx=self.scenario_idx,
            **{name: getattr(self, name) for name in _FLOAT_COLUMNS + _INT_COLUMNS},
        )
        return buffer.getvalue()

    def pack(self) -> bytes:
        """The result cache's encoding: one zlib-compressed buffer.

        Before compression it is a 4-byte little-endian header length, a
        JSON header (:meth:`manifest` plus the ``node_names`` dtype and
        count), then the raw little-endian bytes of ``node_names`` and of
        each column, in the header's ``columns`` order.  :meth:`unpack` reads
        it back with one decompress and one JSON parse.
        """
        if self.node_names.dtype.kind != "U":
            raise ValueError(f"node names must be strings to pack, not {self.node_names.dtype}")
        names = self.node_names.astype(self.node_names.dtype.newbyteorder("<"), copy=False)
        header = self.manifest()
        header["node_names"] = {"dtype": names.dtype.str, "n": len(names)}
        head = json.dumps(header).encode("utf-8")
        chunks = [_HEADER_LENGTH.pack(len(head)), head, names.tobytes()]
        for name, dtype in _COLUMN_DTYPES.items():
            chunks.append(getattr(self, name).astype(_PACKED_DTYPES[dtype], copy=False).tobytes())
        return zlib.compress(b"".join(chunks))

    @classmethod
    def unpack(cls, blob: bytes) -> "ResultSet":
        """Decode :meth:`pack` output; a malformed buffer raises ``ValueError``.

        ``blob`` is bytes-like (a cache hit passes a ``memoryview``).  Only the
        dtypes :meth:`pack` writes are accepted, so no object array is ever
        built; the body must hold exactly the declared columns; the
        constructor checks row counts and code ranges.  Each column is copied
        out of the buffer, so it owns its memory and is writeable.  Columns
        added after a buffer was written (the schema is additive within one
        version) fall back to their "not measured" sentinels.
        """
        inflate = zlib.decompressobj()
        try:
            raw = inflate.decompress(blob)
        except zlib.error as exc:
            raise ValueError(f"packed ResultSet does not decompress: {exc}") from None
        if not inflate.eof or inflate.unused_data:
            raise ValueError("packed ResultSet is truncated or has trailing bytes")
        if len(raw) < _HEADER_LENGTH.size:
            raise ValueError("packed ResultSet has no header")
        (head_len,) = _HEADER_LENGTH.unpack_from(raw)
        start = _HEADER_LENGTH.size + head_len
        header = json.loads(raw[_HEADER_LENGTH.size:start])
        layout = _packed_layout(header)
        size = sum(dtype.itemsize * count for _, dtype, count in layout)
        if len(raw) - start != size:
            raise ValueError(
                f"packed ResultSet body has {len(raw) - start} bytes, its header declares {size}"
            )
        arrays: Dict[str, np.ndarray] = {}
        offset = start
        for name, dtype, count in layout:
            # Positional: numpy's frombuffer parses keywords at a cost per call.
            arrays[name] = np.frombuffer(raw, dtype, count, offset).copy()
            offset += dtype.itemsize * count
        return cls(scenarios=header["scenarios"], **arrays)


def _count(value: Any, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"packed ResultSet header: {what} is {value!r}, not a count")
    return value


def _packed_layout(header: Any) -> List[Tuple[str, np.dtype, int]]:
    """The (name, dtype, count) of each array in a packed body, validated."""
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
        schema = header.get("schema") if isinstance(header, dict) else None
        raise ValueError(f"unsupported ResultSet schema {schema!r}")
    names, columns, scenarios = (header.get(key) for key in ("node_names", "columns", "scenarios"))
    if not (isinstance(names, dict) and isinstance(columns, dict) and isinstance(scenarios, list)
            and all(isinstance(entry, dict) for entry in scenarios)):
        raise ValueError("packed ResultSet header lacks node_names, columns or scenarios")
    if len(scenarios) != _count(header.get("n_scenarios"), "n_scenarios"):
        raise ValueError("packed ResultSet header: n_scenarios does not match its scenarios")
    names_dtype = names.get("dtype")
    if not (isinstance(names_dtype, str) and re.fullmatch(r"<U[1-9][0-9]*", names_dtype)):
        raise ValueError(f"packed ResultSet node names have dtype {names_dtype!r}, not <U")
    missing = {"src_code", "dst_code", "scenario_idx"} - columns.keys()
    if missing:
        raise ValueError(f"packed ResultSet lacks columns {sorted(missing)}")
    n_flows = _count(header.get("n_flows"), "n_flows")
    layout = [("node_names", np.dtype(names_dtype), _count(names.get("n"), "node_names.n"))]
    for name, dtype in columns.items():
        if _COLUMN_DTYPES.get(name) != dtype:
            raise ValueError(f"packed ResultSet column {name!r} has dtype {dtype!r}, "
                             f"expected {_COLUMN_DTYPES.get(name)!r}")
        layout.append((name, _PACKED_DTYPES[dtype], n_flows))
    return layout
