"""Declarative experiments: typed parameters, tagged registry, artifact outputs.

An :class:`Experiment` is the declarative face of one paper harness: an id,
a title, classification tags (``analytical``, ``packet-level``, ``slow``,
``testbed``, ``ablation``, ...), a typed parameter spec with defaults, and a
body that builds an :class:`Artifact`.  Experiments live in the shared
:data:`~repro.registry.EXPERIMENTS` registry -- the same plugin surface as
topologies, MACs, and traffic models -- so the CLI, discovery, and tests all
see plugin experiments exactly like the builtins.  The builtins register
when :mod:`repro.experiments` is imported; without that import the registry
holds only plugins::

    import repro.experiments  # registers the builtin harnesses
    from repro.api import EXPERIMENTS

    artifact = EXPERIMENTS["table-1"].run(n_samples=5000)
    artifact.scalars["minimum_efficiency_percent"]
    artifact.save("out/table-1")  # manifest.json + .bin sidecars

An :class:`Artifact` is the typed output model: named **tables** (JSON-able
mappings/lists), named **series** (curve/scatter payloads, summarised rather
than dumped when printing), attached :class:`~repro.results.ResultSet`\\ s
(persisted as ``.bin`` sidecars in the packed form of
:meth:`ResultSet.save`), free-form **notes**, and a JSON **manifest** tying it
together.  ``save``/``load`` round-trip an artifact through a directory, so
experiment outputs become cacheable, diffable files instead of transient
dicts.

Each harness module's ``run(...) -> ExperimentResult`` is the computational
body; :meth:`Experiment.run` calls it and lifts the result into an
:class:`Artifact`.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..registry import EXPERIMENTS
from ..results import ResultSet

__all__ = [
    "Param",
    "Artifact",
    "Experiment",
    "EXPERIMENTS",
    "experiment",
    "params_from_signature",
    "parse_overrides",
]

#: Schema 2 stores result sets as packed ``.bin`` sidecars; schema 1 (the
#: ``.npz`` sidecars) is not read.
MANIFEST_SCHEMA = 2

#: Values accepted (case-insensitively) as ``None`` in ``--set`` overrides.
_NONE_WORDS = ("none", "null", "off")

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


# -- parameters -----------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter: name, default, and coercion kind.

    ``kind`` is one of ``int``, ``float``, ``bool``, ``str``, ``list``
    (comma-separated scalars), or ``json`` (free-form; parsed as JSON when
    possible).  ``"auto"`` infers the kind from the default's type.
    ``optional`` marks parameters for which ``None`` is a legal value
    (``--set name=off``/``none`` maps to ``None`` only then; elsewhere those
    words are ordinary values and fail coercion like any other bad input).
    """

    name: str
    default: Any = None
    kind: str = "auto"
    doc: str = ""
    optional: bool = False

    def resolved_kind(self) -> str:
        if self.kind != "auto":
            return self.kind
        default = self.default
        if isinstance(default, bool):
            return "bool"
        if isinstance(default, int):
            return "int"
        if isinstance(default, float):
            return "float"
        if isinstance(default, str):
            return "str"
        if isinstance(default, (list, tuple, np.ndarray)):
            return "list"
        return "json"

    def coerce(self, text: str) -> Any:
        """Parse a ``--set name=value`` string into this parameter's type."""
        stripped = text.strip()
        kind = self.resolved_kind()
        # "off"/"none" mean None only where None is legal -- never for bool
        # params (where "off" is False) or list params (where each element
        # maps individually, e.g. a CCA axis point disabling carrier sense).
        if (
            (self.optional or self.default is None)
            and kind not in ("bool", "list")
            and stripped.lower() in _NONE_WORDS
        ):
            return None
        try:
            if kind == "bool":
                lowered = stripped.lower()
                if lowered in _TRUE_WORDS:
                    return True
                if lowered in _FALSE_WORDS:
                    return False
                raise ValueError(f"not a boolean: {text!r}")
            if kind == "int":
                return int(stripped)
            if kind == "float":
                return float(stripped)
            if kind == "str":
                return text
            if kind == "list":
                if stripped.startswith("["):
                    return json.loads(stripped)
                # Per-element "off"/"none" maps to None (e.g. a CCA axis
                # value disabling carrier sense for that grid point).
                return [
                    None if item.strip().lower() in _NONE_WORDS else _scalar(item)
                    for item in stripped.split(",")
                    if item.strip()
                ]
            # json: structured literals pass through json.loads, bare words
            # fall back to the raw string.
            try:
                return json.loads(stripped)
            except json.JSONDecodeError:
                return text
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"parameter {self.name!r} expects {kind}, got {text!r}: {exc}"
            ) from exc

    def describe(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"name": self.name, "kind": self.resolved_kind()}
        try:
            entry["default"] = _jsonable(self.default)
        except TypeError:
            entry["default"] = repr(self.default)
        if self.optional:
            entry["optional"] = True
        if self.doc:
            entry["doc"] = self.doc
        return entry


def _scalar(text: str) -> Any:
    """Best-effort scalar for list elements: int, then float, then string."""
    item = text.strip()
    try:
        return int(item)
    except ValueError:
        pass
    try:
        return float(item)
    except ValueError:
        return item


def _annotation_allows_none(parameter: inspect.Parameter) -> bool:
    """Whether the parameter's type annotation admits ``None``.

    Annotations are usually strings here (``from __future__ import
    annotations`` across the package), so this is a textual check for the
    ``Optional[...]`` / ``... | None`` spellings.
    """
    annotation = parameter.annotation
    if annotation is inspect.Parameter.empty:
        return False
    if not isinstance(annotation, str):
        annotation = str(annotation)
    return "Optional" in annotation or "None" in annotation


def params_from_signature(
    fn: Callable[..., Any], exclude: Sequence[str] = ()
) -> Tuple[Param, ...]:
    """Derive a typed parameter spec from a ``run()`` signature's defaults.

    Parameters without defaults and names in ``exclude`` (non-JSON-able
    inputs such as ``layout`` objects, or fields bound by the experiment
    declaration) are omitted from the spec.  A parameter whose default is
    ``None`` or whose annotation admits ``None`` is marked optional.
    """
    params: List[Param] = []
    for name, parameter in inspect.signature(fn).parameters.items():
        if name in exclude or parameter.default is inspect.Parameter.empty:
            continue
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        params.append(Param(
            name=name,
            default=parameter.default,
            optional=parameter.default is None or _annotation_allows_none(parameter),
        ))
    return tuple(params)


def parse_overrides(assignments: Sequence[str]) -> Dict[str, str]:
    """Split raw ``--set key=value`` strings into an ordered mapping."""
    overrides: Dict[str, str] = {}
    for assignment in assignments:
        key, sep, value = assignment.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"--set expects key=value, got {assignment!r}")
        overrides[key.strip()] = value
    return overrides


# -- JSON plumbing ---------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types; raise ``TypeError`` if impossible."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return _jsonable(value.item())
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    raise TypeError(f"not JSON-able: {type(value).__name__}")


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], float):
        return "[" + ", ".join(f"{v:.4g}" for v in value) + "]"
    return str(value)


def _summarise_series(value: Any) -> str:
    """A one-line shape description for a named series payload."""
    if isinstance(value, Mapping):
        inner = next(iter(value.values()), None)
        if isinstance(inner, Mapping):
            fields = ", ".join(str(k) for k in inner)
            return f"{len(value)} series ({fields})"
        if isinstance(inner, (list, tuple)):
            return f"{len(value)} series of {len(inner)} points"
        return f"mapping of {len(value)} entries"
    if isinstance(value, (list, tuple)):
        return f"{len(value)} rows"
    return type(value).__name__


_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def _sidecar_name(name: str) -> str:
    return f"{_SAFE_NAME.sub('-', name) or 'results'}.bin"


# -- artifact --------------------------------------------------------------------


class Artifact:
    """Typed output of one experiment run.

    Attributes
    ----------
    scalars:
        Flat name -> scalar (numbers and strings; multi-line strings render
        as blocks, e.g. preformatted paper tables).
    tables:
        Name -> JSON-able mapping/list payloads, printed in full.
    series:
        Name -> JSON-able curve/scatter payloads; persisted in the manifest
        but *summarised* when printing (a figure's raw samples are data, not
        terminal output).
    result_sets:
        Name -> :class:`~repro.results.ResultSet`, persisted as packed
        ``.bin`` sidecars next to the manifest.
    notes:
        Free-form annotations, in insertion order.
    extras:
        Transient, non-persistable attachments (campaign/study objects);
        kept in memory for programmatic callers, never written to disk.
    """

    def __init__(
        self,
        experiment_id: str,
        title: str,
        params: Optional[Mapping[str, Any]] = None,
        scalars: Optional[Mapping[str, Any]] = None,
        tables: Optional[Mapping[str, Any]] = None,
        series: Optional[Mapping[str, Any]] = None,
        result_sets: Optional[Mapping[str, ResultSet]] = None,
        notes: Optional[Sequence[str]] = None,
        extras: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.params: Dict[str, Any] = dict(params or {})
        self.scalars: Dict[str, Any] = dict(scalars or {})
        self.tables: Dict[str, Any] = dict(tables or {})
        self.series: Dict[str, Any] = dict(series or {})
        self.result_sets: Dict[str, ResultSet] = dict(result_sets or {})
        self.notes: List[str] = list(notes or [])
        self.extras: Dict[str, Any] = dict(extras or {})
        #: Names of extras recorded in a loaded manifest whose objects were
        #: (by design) not persisted; folded back into :meth:`manifest` so
        #: save -> load -> save is stable and round-trip equality holds.
        self.extra_names: List[str] = []

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    # -- persistence -----------------------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        """The JSON-able description of this artifact (sidecars by name)."""
        return {
            "schema": MANIFEST_SCHEMA,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "params": _params_manifest(self.params),
            "scalars": _jsonable(self.scalars),
            "tables": _jsonable(self.tables),
            "series": _jsonable(self.series),
            "result_sets": {
                name: {
                    "file": _sidecar_name(name),
                    "n_flows": rs.n_flows,
                    "n_scenarios": rs.n_scenarios,
                }
                for name, rs in self.result_sets.items()
            },
            "notes": list(self.notes),
            "extras": sorted(set(self.extras) | set(self.extra_names)),
        }

    def save(self, out_dir: Any) -> Path:
        """Write ``manifest.json`` plus one ``.bin`` sidecar per result set.

        Returns the manifest path.  ``extras`` are not persisted (the
        manifest records their names so a reader knows what was dropped).
        """
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, rs in self.result_sets.items():
            rs.save(directory / _sidecar_name(name))
        manifest_path = directory / "manifest.json"
        manifest_path.write_text(
            json.dumps(self.manifest(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return manifest_path

    @classmethod
    def load(cls, path: Any) -> "Artifact":
        """Rebuild an artifact from a manifest path (or its directory)."""
        manifest_path = Path(path)
        if manifest_path.is_dir():
            manifest_path = manifest_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported artifact schema {manifest.get('schema')!r} "
                f"(this version reads schema {MANIFEST_SCHEMA}); re-run the experiment"
            )
        result_sets = {
            name: ResultSet.load(manifest_path.parent / entry["file"])
            for name, entry in manifest.get("result_sets", {}).items()
        }
        artifact = cls(
            experiment_id=manifest["experiment_id"],
            title=manifest["title"],
            params=manifest.get("params", {}),
            scalars=manifest.get("scalars", {}),
            tables=manifest.get("tables", {}),
            series=manifest.get("series", {}),
            result_sets=result_sets,
            notes=manifest.get("notes", []),
        )
        artifact.extra_names = list(manifest.get("extras", []))
        return artifact

    # -- rendering -------------------------------------------------------------

    def summary(self) -> str:
        """Manifest-aware human rendering: full scalars/tables, summarised
        series and result sets (their data lives in the artifact, not the
        terminal)."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for key, value in self.scalars.items():
            if isinstance(value, str) and "\n" in value:
                lines.append(f"{key}:\n{value}")
            else:
                lines.append(f"{key}: {_format_value(value)}")
        for key, value in self.tables.items():
            if isinstance(value, Mapping):
                lines.append(f"{key}:")
                for inner_key, inner_value in value.items():
                    lines.append(f"  {inner_key}: {_format_value(inner_value)}")
            else:
                lines.append(f"{key}: {_format_value(value)}")
        for key, value in self.series.items():
            lines.append(f"{key}: <series: {_summarise_series(value)}>")
        for key, rs in self.result_sets.items():
            lines.append(f"{key}: {rs!r}")
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Artifact({self.experiment_id!r}, scalars={len(self.scalars)}, "
            f"tables={len(self.tables)}, series={len(self.series)}, "
            f"result_sets={len(self.result_sets)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Artifact):
            return NotImplemented
        return (
            self.manifest() == other.manifest()
            and self.result_sets == other.result_sets
        )

    __hash__ = None  # mutable container semantics


def _params_manifest(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Params as JSON; non-JSON-able values (layout objects) record as repr."""
    out: Dict[str, Any] = {}
    for name, value in params.items():
        try:
            out[name] = _jsonable(value)
        except TypeError:
            out[name] = repr(value)
    return out


# -- experiment ------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A declarative, registry-backed experiment harness.

    ``runner`` is the computational body (a harness module's ``run(...)``
    returning an ``ExperimentResult``-like object with ``data``/``notes``);
    :meth:`build` lifts its output into an
    :class:`Artifact`.  ``defaults`` are bound keyword arguments not exposed
    as parameters (how one module serves two figure ids); ``series_keys``
    name data entries that are series rather than tables; non-JSON-able
    entries land in ``Artifact.extras`` automatically.
    """

    id: str
    title: str
    runner: Callable[..., Any]
    tags: Tuple[str, ...] = ()
    params: Tuple[Param, ...] = ()
    defaults: Mapping[str, Any] = field(default_factory=dict)
    series_keys: Tuple[str, ...] = ()
    description: str = ""

    # -- parameter handling ----------------------------------------------------

    def param(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        known = ", ".join(p.name for p in self.params) or "<none>"
        raise KeyError(f"experiment {self.id!r} has no parameter {name!r} (known: {known})")

    def resolve(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate overrides against the spec; strings are coerced by kind."""
        resolved: Dict[str, Any] = {}
        for name, value in overrides.items():
            param = self.param(name)  # raises on unknown names
            resolved[name] = param.coerce(value) if isinstance(value, str) else value
        return resolved

    def resolved_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Every parameter's effective value (defaults + overrides)."""
        params = {param.name: param.default for param in self.params}
        params.update(overrides)
        return params

    # -- execution -------------------------------------------------------------

    def build(self, params: Mapping[str, Any]) -> Artifact:
        """Run the body with fully-resolved params and build the artifact."""
        result = self.runner(**{**dict(self.defaults), **dict(params)})
        return self._lift(result, self.resolved_params(dict(params)))

    def run(self, **overrides: Any) -> Artifact:
        """Resolve keyword/string overrides against the spec, then build."""
        return self.build(self.resolve(overrides))

    __call__ = run

    def _lift(self, result: Any, params: Mapping[str, Any]) -> Artifact:
        """Classify an ``ExperimentResult``'s data into typed artifact slots."""
        artifact = Artifact(
            experiment_id=self.id,
            title=getattr(result, "title", self.title),
            params=params,
            notes=getattr(result, "notes", []),
        )
        for key, value in getattr(result, "data", {}).items():
            if isinstance(value, ResultSet):
                artifact.result_sets[key] = value
                continue
            try:
                _jsonable(value)
            except TypeError:
                artifact.extras[key] = value
                continue
            if key in self.series_keys:
                artifact.series[key] = value
            elif value is None or isinstance(value, (bool, int, float, str, np.generic)):
                artifact.scalars[key] = value
            else:
                artifact.tables[key] = value
        return artifact

    def describe(self) -> Dict[str, Any]:
        """JSON-able metadata for ``list --json`` / ``describe``."""
        return {
            "id": self.id,
            "title": self.title,
            "tags": list(self.tags),
            "description": self.description,
            "params": [param.describe() for param in self.params],
        }


def experiment(
    id: str,
    title: str,
    runner: Callable[..., Any],
    tags: Sequence[str] = (),
    exclude_params: Sequence[str] = (),
    defaults: Optional[Mapping[str, Any]] = None,
    series_keys: Sequence[str] = (),
    description: str = "",
) -> Experiment:
    """Declare and register an experiment in :data:`EXPERIMENTS`.

    The parameter spec is derived from ``runner``'s signature defaults,
    minus ``exclude_params`` and anything bound by ``defaults``.  Returns
    the registered :class:`Experiment`.
    """
    defaults = dict(defaults or {})
    if not description and runner.__doc__:
        description = runner.__doc__.strip().splitlines()[0]
    exp = Experiment(
        id=id,
        title=title,
        runner=runner,
        tags=tuple(tags),
        params=params_from_signature(
            runner, exclude=tuple(exclude_params) + tuple(defaults)
        ),
        defaults=defaults,
        series_keys=tuple(series_keys),
        description=description,
    )
    EXPERIMENTS.register(id, exp)
    return exp
