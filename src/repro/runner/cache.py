"""Disk cache for batch-task results, keyed by a stable config hash.

Each entry is one file under ``<root>/<hh>/``, where ``hh`` is the first two
hex digits of the key (keeps directories small on large sweeps).  Writes go
through a temp file plus :func:`os.replace` so a crashed worker never leaves
a half-written entry behind, and concurrent writers of the same key are safe
(last writer wins with identical content).

Two result encodings share the store:

* plain JSON-able results (non-columnar tasks) live inline in
  ``<key>.json``, a JSON object of ``key``, ``config`` and ``result``;
* a :class:`repro.results.ResultSet` lives in ``<key>.bin``: an 8-byte
  magic, a 4-byte little-endian header length, a JSON header of ``key``,
  ``format`` (``"packed/1"``) and ``config``, then the
  :meth:`~repro.results.ResultSet.pack` bytes, so a hit reads one file.

An unusable entry evicts every ``<key>.*`` file, and the task re-executes
once.  Unusable means unreadable (wrong magic, another key or format, a body
that does not unpack) or written by an older version: a two-file entry (a
JSON manifest next to a raw packed ``.bin`` or an ``.npz`` sidecar), or a
scenario result stored inline before the columnar format.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from ..results import ResultSet

__all__ = ["config_hash", "ResultCache"]

#: The ResultSet encoding :meth:`ResultCache.put` writes, and the only one read.
PACKED_FORMAT = "packed/1"

#: The fixed prefix of a ``.bin`` entry: magic, then the JSON header length.
_MAGIC = b"REPRO-RS"
_PREFIX = struct.Struct("<8sI")

#: The result of the manifest older versions wrote next to a sidecar.
_RETIRED_MANIFEST = "__repro_resultset__"

#: The scenario worker entry point (named, not imported: the runner does not
#: import the scenarios).  Its results are stored as ``.bin``, so an inline
#: ``.json`` entry under it predates the columnar format.
RUN_SCENARIO_PATH = "repro.scenarios.execute.run_scenario"

_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(obj: Any) -> Any:
    """Reduce a config to a canonical JSON-able form for hashing.

    Tuples become lists, mapping keys are coerced to strings (JSON does this
    anyway; doing it explicitly keeps the hash independent of key *type*),
    numpy scalars become their Python value, and sets are rejected because
    their iteration order is not stable.
    """
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} cannot be cached stably")
        # 20.0 and 20 hash identically, so CLI-parsed floats match API ints.
        return int(obj) if obj.is_integer() and abs(obj) < 2**53 else obj
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if isinstance(obj, (set, frozenset)):
        raise TypeError("sets have no stable order; use a sorted list in configs")
    return obj


def config_hash(config: Any) -> str:
    """Stable hex digest of a JSON-able config (order-insensitive for dicts)."""
    payload = _KEY_ENCODER.encode(_canonical(config))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed store of task results on disk."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root).expanduser()
        self._root = str(self.root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str, suffix: str = ".json") -> Path:
        return self.root / key[:2] / f"{key}{suffix}"

    def _evict(self, key: str) -> None:
        """Drop every ``<key>.*`` file of an unusable entry so the next
        ``put`` rewrites it."""
        for path in self.root.joinpath(key[:2]).glob(f"{key}.*"):
            path.unlink(missing_ok=True)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``key`` (``{"key", "config", "result"}``, a
        :class:`~repro.results.ResultSet` result already unpacked) or ``None``.

        An unreadable entry is evicted and counts as a miss: anything short of
        eviction would poison every future run of the sweep.
        """
        stem = os.path.join(self._root, key[:2], key)
        try:
            entry = _decode_bin(key, _read(stem + ".bin"))
        except FileNotFoundError:
            try:
                entry = _decode_json(_read(stem + ".json"))
            except FileNotFoundError:
                self.misses += 1
                return None
        if entry is None:
            self._evict(key)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def get_result(self, key: str) -> Optional[Any]:
        entry = self.get(key)
        return None if entry is None else entry["result"]

    def put(self, key: str, config: Any, result: Any) -> Path:
        """Store a result as ``<key>.bin`` (a :class:`~repro.results.ResultSet`)
        or inline as ``<key>.json`` (anything JSON-able); returns the path.

        An entry of the other kind for the same key is removed.
        """
        canonical = _canonical(config)
        if isinstance(result, ResultSet):
            path, other = self._path(key, ".bin"), self._path(key, ".json")
            head = _KEY_ENCODER.encode(
                {"key": key, "format": PACKED_FORMAT, "config": canonical}).encode("utf-8")
            payload = b"".join((_PREFIX.pack(_MAGIC, len(head)), head, result.pack()))
        else:
            path, other = self._path(key, ".json"), self._path(key, ".bin")
            payload = json.dumps({"key": key, "config": canonical, "result": result},
                                 sort_keys=True).encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path, payload)
        other.unlink(missing_ok=True)
        return path

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key, ".bin").exists() or self._path(key).exists()

    def __len__(self) -> int:
        return len({path.stem for pattern in ("*/*.bin", "*/*.json")
                    for path in self.root.glob(pattern)})


def _read(path: str) -> bytes:  # one read, without open()'s buffered reader
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _decode_bin(key: str, blob: bytes) -> Optional[Dict[str, Any]]:
    """The entry in a ``.bin`` file, or ``None`` if it is unusable."""
    try:
        magic, head_len = _PREFIX.unpack_from(blob)
        if magic != _MAGIC:
            return None
        start = _PREFIX.size + head_len
        header = json.loads(blob[_PREFIX.size:start])
        if header["key"] != key or header["format"] != PACKED_FORMAT:
            return None
        return {"key": key, "config": header["config"],
                "result": ResultSet.unpack(memoryview(blob)[start:])}
    except (struct.error, ValueError, KeyError, TypeError):  # short, bad JSON or body
        return None


def _decode_json(blob: bytes) -> Optional[Dict[str, Any]]:
    """The entry in a ``.json`` file, or ``None`` if it is unusable."""
    try:
        entry = json.loads(blob.decode("utf-8"))
        result = entry["result"]
        config = entry.get("config")
    except (ValueError, TypeError, KeyError):  # not UTF-8 or JSON, or no result
        return None
    if isinstance(config, dict) and config.get("fn") == RUN_SCENARIO_PATH:
        return None
    return None if isinstance(result, dict) and _RETIRED_MANIFEST in result else entry
