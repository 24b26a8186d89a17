"""Disk cache for batch-task results, keyed by a stable config hash.

Results are stored under ``<root>/<hh>/<hash>.json`` where ``hh`` is the
first two hex digits of the key (keeps directories small on large sweeps).
Writes go through a temp file plus :func:`os.replace` so a crashed worker
never leaves a half-written entry behind, and concurrent writers of the
same key are safe (last writer wins with identical content).

Two result encodings share the store:

* plain JSON-able results (non-columnar tasks) live inline in the ``.json``
  entry;
* :class:`repro.results.ResultSet` results are written as a compact binary
  sidecar (``<hash>.bin``: one zlib-compressed buffer of a JSON header and
  the raw columns, see :meth:`~repro.results.ResultSet.pack`) with the
  ``.json`` entry reduced to a JSON manifest pointing at it.  Flow tables
  compress far better as typed columns than as per-flow dict text, and a
  hit costs one file read, one decompress and one JSON parse.

The manifest records the sidecar's ``format``, ``"packed/1"``.  A sidecar
that is missing, corrupt or of any other format (such as the ``.npz``
sidecars older versions wrote) evicts the entry with every file it left, and
the task re-executes.

A scenario entry written before the columnar format (an inline dict) is
returned as stored; :meth:`repro.results.ResultSet.concat` rejects it with a
``TypeError`` naming the remedy (re-run with ``force``, or clear the cache).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from ..results import ResultSet

__all__ = ["config_hash", "ResultCache"]

#: Marker key identifying a JSON entry whose result lives in a binary sidecar.
RESULTSET_MARKER = "__repro_resultset__"

#: The sidecar format :meth:`ResultCache.put` writes, and the only one read.
PACKED_FORMAT = "packed/1"


def _canonical(obj: Any) -> Any:
    """Reduce a config to a canonical JSON-able form for hashing.

    Tuples become lists, mapping keys are coerced to strings (JSON does this
    anyway; doing it explicitly keeps the hash independent of key *type*),
    and sets are rejected because their iteration order is not stable.
    """
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        raise TypeError("sets have no stable order; use a sorted list in configs")
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} cannot be cached stably")
        # 20.0 and 20 hash identically, so CLI-parsed floats match API ints.
        if obj == int(obj) and abs(obj) < 2**53:
            return int(obj)
    return obj


def config_hash(config: Any) -> str:
    """Stable hex digest of a JSON-able config (order-insensitive for dicts)."""
    payload = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed store of task results on disk."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _binary_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def _evict(self, key: str) -> None:
        """Drop every ``<key>.*`` file of an unusable entry so the next
        ``put`` rewrites it."""
        for path in self._path(key).parent.glob(f"{key}.*"):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``key`` (``{"config", "result"}``) or ``None``.

        Columnar entries come back with ``entry["result"]`` already loaded
        into a :class:`~repro.results.ResultSet`; inline-JSON entries are
        returned as stored.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A corrupt entry would otherwise stay on disk forever: ``get``
            # keeps missing while ``__contains__`` keeps claiming the key
            # exists.  Unlink it so the next ``put`` rewrites a clean entry.
            self._evict(key)
            self.misses += 1
            return None
        marker = entry.get("result")
        if isinstance(marker, dict) and RESULTSET_MARKER in marker:
            try:
                entry["result"] = self._load_sidecar(key, marker[RESULTSET_MARKER])
            except Exception:  # noqa: BLE001 -- any unreadable sidecar poisons the key
                # Missing, truncated, corrupt or unknown-format sidecar
                # (OSError, ValueError from ``unpack``): the entry is
                # unusable as a whole, and anything short of eviction would
                # poison every future run of the sweep.
                self._evict(key)
                self.misses += 1
                return None
        self.hits += 1
        return entry

    def _load_sidecar(self, key: str, marker: Any) -> ResultSet:
        """The ResultSet in ``key``'s sidecar, read as its manifest says."""
        fmt = marker.get("format") if isinstance(marker, dict) else None
        if fmt != PACKED_FORMAT:
            raise ValueError(f"unknown ResultSet sidecar format {fmt!r}")
        return ResultSet.load(self._binary_path(key))

    def get_result(self, key: str) -> Optional[Any]:
        entry = self.get(key)
        return None if entry is None else entry["result"]

    def put(self, key: str, config: Any, result: Any) -> Path:
        """Store a result; returns the entry path.

        Plain results must be JSON-able and are stored inline.  A
        :class:`~repro.results.ResultSet` is stored columnar: the binary
        sidecar first, then the manifest entry (so a reader never sees a
        manifest whose sidecar is missing).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stored: Any = result
        if isinstance(result, ResultSet):
            self._write_atomic(self._binary_path(key), result.pack())
            stored = {
                RESULTSET_MARKER: {
                    "format": PACKED_FORMAT,
                    "file": self._binary_path(key).name,
                    "n_flows": result.n_flows,
                    "n_scenarios": result.n_scenarios,
                }
            }
        payload = json.dumps(
            {"key": key, "config": _canonical(config), "result": stored},
            sort_keys=True,
        )
        self._write_atomic(path, payload.encode("utf-8"))
        return path

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
