"""The run record: one reproducible measurement, serialisable.

A :class:`RunRecord` pins down *what ran* (algorithm, instance
parameters, seed), *what it did* (counters, timings) and *what came
out* (result sizes) in one JSON-ready object.  The schema is versioned
(``repro.obs/run-record/v1``) and checkable offline with
:func:`validate_run_record` — no third-party JSON-Schema library is
needed, matching the zero-dependency rule of the package.

Field-by-field documentation lives in ``docs/observability.md``; the
machine-readable shape is :data:`RUN_RECORD_SCHEMA`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .core import Registry

__all__ = [
    "SCHEMA_ID",
    "RUN_RECORD_SCHEMA",
    "RunRecord",
    "validate_run_record",
    "assert_valid_run_record",
]

#: Version tag embedded in every record; bump on breaking shape change.
SCHEMA_ID = "repro.obs/run-record/v1"

#: JSON-Schema (draft-07 subset) describing a serialised record.  The
#: in-repo validator below implements exactly these constraints.
RUN_RECORD_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "RunRecord",
    "type": "object",
    "required": ["schema", "algorithm", "instance", "seed", "counters", "timings", "results"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "algorithm": {"type": "string", "minLength": 1},
        "instance": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "counters": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "timings": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["seconds", "count"],
                "properties": {
                    "seconds": {"type": "number", "minimum": 0},
                    "count": {"type": "integer", "minimum": 0},
                },
            },
        },
        "results": {"type": "object"},
        "histograms": {
            # Optional: one entry per histogram, in the cumulative
            # [upper_bound, cumulative_count] form of
            # repro.obs.metrics.Histogram.to_record (finite bounds
            # only; see validate_histogram_record).
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["count", "sum", "buckets"],
                "properties": {
                    "count": {"type": "integer", "minimum": 0},
                    "sum": {"type": "number"},
                    "min": {"type": ["number", "null"]},
                    "max": {"type": ["number", "null"]},
                    "buckets": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": [
                                {"type": "number"},
                                {"type": "integer", "minimum": 0},
                            ],
                        },
                    },
                },
            },
        },
        "meta": {"type": "object"},
    },
}


@dataclass
class RunRecord:
    """One run's provenance, activity and outcome.

    Attributes:
        algorithm: what ran — a solver label (``"greedy"``), an
            experiment (``"experiment:T8"``) or a benchmark case name.
        instance: parameters pinning down the input (node count, edge
            count, generator arguments, source file, ...).
        seed: the RNG seed that produced the instance, or ``None`` when
            the input came from outside (e.g. a deployment CSV).
        counters: flat name → numeric tally, straight from the registry.
        timings: name → ``{"seconds": total, "count": spans}``.
        results: outcome sizes (``cds_size``, ``dominators``, ...).
        histograms: name → cumulative bucket form (optional; empty for
            runs that observed no distributions — serialised records
            omit the key then, keeping pre-histogram records valid).
        meta: anything else worth keeping (CLI flags, library version).
    """

    algorithm: str
    instance: dict = field(default_factory=dict)
    seed: int | None = None
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_registry(
        cls,
        registry: Registry,
        *,
        algorithm: str,
        instance: Mapping | None = None,
        seed: int | None = None,
        results: Mapping | None = None,
        meta: Mapping | None = None,
    ) -> "RunRecord":
        """Snapshot ``registry`` into a record (counters and timings)."""
        return cls(
            algorithm=algorithm,
            instance=dict(instance or {}),
            seed=seed,
            counters=registry.counters(),
            timings=registry.timings(),
            results=dict(results or {}),
            histograms=registry.histograms_record(),
            meta=dict(meta or {}),
        )

    # -- serialisation ------------------------------------------------

    def to_json_obj(self) -> dict:
        obj = {
            "schema": SCHEMA_ID,
            "algorithm": self.algorithm,
            "instance": self.instance,
            "seed": self.seed,
            "counters": self.counters,
            "timings": self.timings,
            "results": self.results,
            "meta": self.meta,
        }
        if self.histograms:
            obj["histograms"] = self.histograms
        return obj

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=False)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "RunRecord":
        """Rebuild a record from a parsed JSON object.

        Raises:
            ValueError: when the object does not satisfy the schema.
        """
        assert_valid_run_record(obj)
        return cls(
            algorithm=obj["algorithm"],
            instance=dict(obj["instance"]),
            seed=obj["seed"],
            counters=dict(obj["counters"]),
            timings={k: dict(v) for k, v in obj["timings"].items()},
            results=dict(obj["results"]),
            histograms={k: dict(v) for k, v in obj.get("histograms", {}).items()},
            meta=dict(obj.get("meta", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunRecord":
        return cls.from_json_obj(json.loads(Path(path).read_text()))


def validate_run_record(obj: object) -> list[str]:
    """Check ``obj`` against :data:`RUN_RECORD_SCHEMA`.

    Returns the list of violations (empty means valid).  Implemented by
    hand so validation works without a jsonschema dependency.
    """
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return [f"record must be an object, got {type(obj).__name__}"]
    required = RUN_RECORD_SCHEMA["required"]
    for key in required:
        if key not in obj:
            errors.append(f"missing required field {key!r}")
    if errors:
        return errors
    if obj["schema"] != SCHEMA_ID:
        errors.append(f"schema must be {SCHEMA_ID!r}, got {obj['schema']!r}")
    if not isinstance(obj["algorithm"], str) or not obj["algorithm"]:
        errors.append("algorithm must be a non-empty string")
    for key in ("instance", "results"):
        if not isinstance(obj[key], Mapping):
            errors.append(f"{key} must be an object")
    if obj["seed"] is not None and not isinstance(obj["seed"], int):
        errors.append("seed must be an integer or null")
    counters = obj["counters"]
    if not isinstance(counters, Mapping):
        errors.append("counters must be an object")
    else:
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"counter {name!r} must be numeric, got {value!r}")
            elif not math.isfinite(value):
                # json.loads happily parses NaN/Infinity, so guard here.
                errors.append(f"counter {name!r} must be finite, got {value!r}")
    timings = obj["timings"]
    if not isinstance(timings, Mapping):
        errors.append("timings must be an object")
    else:
        for name, entry in timings.items():
            if not isinstance(entry, Mapping):
                errors.append(f"timing {name!r} must be an object")
                continue
            seconds = entry.get("seconds")
            count = entry.get("count")
            # The isfinite guard matters: NaN compares False to
            # everything, so `seconds < 0` alone would wave NaN through.
            if (
                isinstance(seconds, bool)
                or not isinstance(seconds, (int, float))
                or not math.isfinite(seconds)
                or seconds < 0
            ):
                errors.append(f"timing {name!r}: seconds must be a finite number >= 0")
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                errors.append(f"timing {name!r}: count must be an integer >= 0")
    if "histograms" in obj:
        histograms = obj["histograms"]
        if not isinstance(histograms, Mapping):
            errors.append("histograms must be an object")
        else:
            from .metrics import validate_histogram_record

            for name, entry in histograms.items():
                errors.extend(validate_histogram_record(name, entry))
    if "meta" in obj and not isinstance(obj["meta"], Mapping):
        errors.append("meta must be an object")
    return errors


def assert_valid_run_record(obj: object) -> None:
    """Raise ``ValueError`` listing every schema violation in ``obj``."""
    errors = validate_run_record(obj)
    if errors:
        raise ValueError("invalid RunRecord: " + "; ".join(errors))

