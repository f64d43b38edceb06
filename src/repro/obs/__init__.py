"""``repro.obs`` — instrumentation and run records.

A zero-dependency observability layer for the whole library:

* :class:`Counter` / :class:`Span` primitives and
  :class:`~repro.obs.metrics.Histogram` span timers held in a
  process-local :class:`Registry` (the shared default is :data:`OBS`);
* the :func:`traced` decorator and :func:`trace` context manager, both
  near-zero overhead while the registry is disabled (the default);
* :class:`RunRecord` — a versioned, schema-checked JSON/CSV snapshot of
  one run: algorithm, instance parameters, seed, counters, timings and
  result sizes.

The solvers, the UDG builders, the distributed simulator and the
experiment harness all report here; ``python -m repro ... --trace`` /
``--stats-out`` and the ``benchmarks/check_counters.py`` counter gate
are the front ends.  See ``docs/observability.md``.
"""

from .core import OBS, Counter, Registry, Span, SpanHook, trace, traced
from .record import (
    RUN_RECORD_SCHEMA,
    SCHEMA_ID,
    RunRecord,
    assert_valid_run_record,
    records_to_csv,
    validate_run_record,
)
# Lazy so ``python -m repro.obs.report`` (and the other runnable
# submodules) do not re-import the module they are about to execute
# (runpy's double-import RuntimeWarning), and so the cheap core import
# never pays for tracemalloc/cProfile machinery it may not use.
_LAZY = {
    "render_record": "report",
    "render_report": "report",
    "EVENT_SCHEMA_ID": "events",
    "EventLog": "events",
    "SpanNode": "events",
    "merge_events": "events",
    "parse_events": "events",
    "read_events": "events",
    "replay": "events",
    "validate_events": "events",
    "write_events": "events",
    "parse_jsonl": "jsonl",
    "Histogram": "metrics",
    "LAYOUT_ID": "metrics",
    "record_percentile": "metrics",
    "validate_histogram_record": "metrics",
    "EXPOSITION_VERSION": "expose",
    "SNAPSHOT_SCHEMA_ID": "expose",
    "MetricsExporter": "expose",
    "PeriodicSnapshotter": "expose",
    "SnapshotStream": "expose",
    "metric_name": "expose",
    "parse_snapshots": "expose",
    "read_snapshots": "expose",
    "render_exposition": "expose",
    "snapshot_state": "expose",
    "validate_exposition": "expose",
    "validate_snapshot": "expose",
    "MemTracker": "profile",
    "mem_tracing": "profile",
    "profile_to": "profile",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OBS",
    "Counter",
    "Registry",
    "Span",
    "SpanHook",
    "trace",
    "traced",
    "RUN_RECORD_SCHEMA",
    "SCHEMA_ID",
    "RunRecord",
    "assert_valid_run_record",
    "records_to_csv",
    "validate_run_record",
    *sorted(_LAZY),
]
