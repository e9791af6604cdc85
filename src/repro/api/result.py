"""Structured run results with JSON / ``.npz`` round-trips.

:class:`ExperimentResult` is the classic in-memory result the experiment
modules have always produced (named series + params + notes).
:class:`RunResult` extends it with the :class:`~repro.api.spec.RunSpec`
that produced it and lossless serialization, so results can be cached on
disk keyed by spec hash and fed back into ``repro.analysis`` unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..analysis.cdf import EmpiricalCdf, median_gain
from ..analysis.report import format_cdf_summary
from ..io import atomic_write as _atomic_write
from .spec import RunSpec

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentResult:
    """Named data series regenerating one paper figure."""

    name: str
    description: str
    series: dict[str, np.ndarray]
    params: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def cdf(self, series_name: str) -> EmpiricalCdf:
        """Empirical CDF of one series (most paper figures are CDFs)."""
        return EmpiricalCdf(self.series[series_name])

    def median(self, series_name: str) -> float:
        return float(np.median(self.series[series_name]))

    def gain(self, treatment: str, baseline: str) -> float:
        """Median relative gain between two series."""
        return median_gain(self.series[treatment], self.series[baseline])

    def summary(self) -> str:
        """Paper-style text table of all series."""
        header = f"== {self.name}: {self.description} =="
        return header + "\n" + format_cdf_summary(self.series)


def _encode(value: Any) -> Any:
    """JSON-encode nested params/notes, tagging numpy arrays losslessly."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            raise TypeError("complex arrays are not serializable in results")
        return {
            "__ndarray__": value.tolist(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} in a RunResult")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            arr = np.asarray(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
            return arr.reshape(value["shape"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


@dataclass(frozen=True)
class RunResult(ExperimentResult):
    """An :class:`ExperimentResult` plus provenance and serialization."""

    spec: RunSpec | None = None
    #: In-memory :class:`repro.obs.TelemetrySummary` snapshot attached by a
    #: ``Runner`` configured with telemetry; ``None`` otherwise.  Pure
    #: observation: never serialized (JSON and npz round-trips drop it), never
    #: compared, and never part of cache identity.
    telemetry: Any | None = field(default=None, repr=False, compare=False)
    #: Whether the ``Runner`` served this result from its disk cache (set by
    #: ``Runner`` on every result it returns).  In memory only, like
    #: ``telemetry``: never serialized, never compared.
    from_cache: bool = field(default=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "format_version": _FORMAT_VERSION,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "name": self.name,
            "description": self.description,
            "series": {k: _encode(np.asarray(v)) for k, v in self.series.items()},
            "params": _encode(self.params),
            "notes": _encode(self.notes),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        payload = json.loads(text)
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported RunResult format version {version!r}")
        spec = payload.get("spec")
        return cls(
            name=payload["name"],
            description=payload["description"],
            series={k: _decode(v) for k, v in payload["series"].items()},
            params=_decode(payload.get("params", {})),
            notes=_decode(payload.get("notes", {})),
            spec=RunSpec.from_dict(spec) if spec is not None else None,
        )

    # ------------------------------------------------------------------
    # npz round-trip (arrays stay binary; metadata rides in a JSON header)
    # ------------------------------------------------------------------
    def save_npz(self, path: str | Path) -> Path:
        path = Path(path)
        meta = {
            "format_version": _FORMAT_VERSION,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "name": self.name,
            "description": self.description,
            "params": _encode(self.params),
            "notes": _encode(self.notes),
        }
        arrays = {f"series/{k}": np.asarray(v) for k, v in self.series.items()}

        def write_to(tmp: Path) -> None:
            # An open handle keeps numpy from appending ".npz" to the temp
            # file's name and makes the rename below atomic.
            with open(tmp, "wb") as fh:
                np.savez(
                    fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays
                )

        _atomic_write(path, write_to)
        return path

    @classmethod
    def load_npz(cls, path: str | Path) -> "RunResult":
        with np.load(Path(path), allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
            series = {
                key[len("series/"):]: data[key]
                for key in data.files
                if key.startswith("series/")
            }
        version = meta.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported RunResult format version {version!r}")
        spec = meta.get("spec")
        return cls(
            name=meta["name"],
            description=meta["description"],
            series=series,
            params=_decode(meta.get("params", {})),
            notes=_decode(meta.get("notes", {})),
            spec=RunSpec.from_dict(spec) if spec is not None else None,
        )

    # ------------------------------------------------------------------
    # Suffix-dispatching convenience
    # ------------------------------------------------------------------
    def save(self, path: str | Path, indent: int | None = 2) -> Path:
        """Write to ``path``; ``.npz`` saves binary, anything else JSON.

        Both formats write atomically (temp sibling + ``os.replace``), so
        an interrupted save never leaves a torn file behind.
        """
        path = Path(path)
        if path.suffix == ".npz":
            return self.save_npz(path)
        text = self.to_json(indent=indent)
        _atomic_write(path, lambda tmp: tmp.write_text(text))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        path = Path(path)
        if path.suffix == ".npz":
            return cls.load_npz(path)
        return cls.from_json(path.read_text())

    @classmethod
    def from_experiment_result(
        cls, base: ExperimentResult, spec: RunSpec | None
    ) -> "RunResult":
        return cls(
            name=base.name,
            description=base.description,
            series=base.series,
            params=base.params,
            notes=base.notes,
            spec=spec,
        )
