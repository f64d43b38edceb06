"""Live telemetry tier two: exporting metrics while the system runs.

Everything in :mod:`repro.obs` so far is *offline* — counters are
captured, frozen into a RunRecord and compared after the fact.  This
module makes the same registry state scrapeable and streamable while
the process is still working:

* :func:`render_exposition` — the registry as **Prometheus text format
  v0.0.4**: counters as ``<name>_total``, span timers as summaries
  (``_sum``/``_count``/``_max``), histograms as classic cumulative
  ``_bucket{le="..."}`` series.  :func:`validate_exposition` is the
  matching in-repo checker (no client library needed), used by the
  ``serve-smoke`` CI scrape.
* :class:`MetricsExporter` — a tiny threaded HTTP endpoint serving the
  exposition at ``/metrics`` (the ``--metrics-port`` flag of
  ``python -m repro serve``).
* :class:`SnapshotStream` — the ``repro.obs/metrics-snapshot/v1``
  JSONL stream: one self-describing line per periodic snapshot
  (monotone ``seq``, wall-clock ``time``, counters/timers/histograms in
  RunRecord-compatible forms).  The final line of a drained daemon's
  stream carries exactly the counters of its drain-time RunRecord —
  the bit-identity contract the serve tests pin.
* :class:`PeriodicSnapshotter` — a daemon thread writing a snapshot
  every ``interval`` seconds (the ``--metrics-out`` flag).

``python -m repro obs tail FILE`` renders either format as a live
terminal table.  See ``docs/observability.md`` §7 and the ops runbook
in ``docs/serving.md``.
"""

from __future__ import annotations

import math
import re
import threading
import time
from pathlib import Path
from typing import Callable, Mapping

from ..durations import check_duration
from .core import Registry
from .jsonl import jsonl_line, parse_jsonl
from .metrics import validate_histogram_record

__all__ = [
    "EXPOSITION_VERSION",
    "SNAPSHOT_SCHEMA_ID",
    "metric_name",
    "render_exposition",
    "validate_exposition",
    "snapshot_state",
    "validate_snapshot",
    "parse_snapshots",
    "SnapshotStream",
    "PeriodicSnapshotter",
    "MetricsExporter",
]

#: Prometheus text exposition format version implemented here.
EXPOSITION_VERSION = "0.0.4"

#: Version tag carried by every snapshot line; bump on shape change.
SNAPSHOT_SCHEMA_ID = "repro.obs/metrics-snapshot/v1"

#: Content type the exporter answers with.
_CONTENT_TYPE = f"text/plain; version={EXPOSITION_VERSION}; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"        # metric name
    r"(\{[^{}]*\})?"                       # optional label set
    r" (\+Inf|-Inf|NaN|[-+]?[0-9.eE+-]+)"  # value
    r"( [0-9]+)?$"                         # optional timestamp
)
_LABELS_OK = re.compile(
    r"^\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*,?\}$"
)
_COMMENT_LINE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped))$"
)


def metric_name(name: str, suffix: str = "") -> str:
    """A registry name as a legal Prometheus metric name.

    Dots (the registry's namespacing convention) and any other illegal
    character become underscores; a leading digit gets a guard
    underscore.  ``serve.requests`` → ``serve_requests`` (the counter
    renderer then appends ``_total``).
    """
    base = _NAME_OK.sub("_", name)
    if not base or base[0].isdigit():
        base = "_" + base
    return base + suffix


def _format_value(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def render_exposition(registry: Registry) -> str:
    """The registry's state in Prometheus text format v0.0.4.

    * counter ``a.b`` → ``a_b_total`` (TYPE counter);
    * span timer ``a.b`` → ``a_b_seconds_sum`` / ``_count`` / ``_max``
      (TYPE summary; ``_max`` rides as an extra sample, which the text
      format permits);
    * histogram ``a.b`` → classic cumulative ``a_b_bucket{le="..."}``
      series with the mandatory ``le="+Inf"`` terminator, plus
      ``a_b_sum`` and ``a_b_count`` (TYPE histogram).

    Output is deterministic: metrics render in sorted registry-name
    order, buckets in ascending bound order.
    """
    lines: list[str] = []
    for name, value in registry.counters().items():
        metric = metric_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, timer in registry.timers().items():
        base = metric_name(name, "_seconds")
        lines.append(f"# TYPE {base} summary")
        lines.append(f"{base}_sum {_format_value(timer.sum)}")
        lines.append(f"{base}_count {timer.count}")
        lines.append(f"{base}_max {_format_value(timer.max or 0.0)}")
    for name, hist in registry.histograms().items():
        base = metric_name(name)
        record = hist.to_record()
        lines.append(f"# TYPE {base} histogram")
        for bound, cumulative in record["buckets"]:
            lines.append(
                f'{base}_bucket{{le="{_format_value(float(bound))}"}} '
                f"{cumulative}"
            )
        lines.append(f'{base}_bucket{{le="+Inf"}} {record["count"]}')
        lines.append(f"{base}_sum {_format_value(record['sum'])}")
        lines.append(f"{base}_count {record['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_exposition(text: str) -> list[str]:
    """Check exposition ``text`` line by line; returns violations.

    Implements the subset of the v0.0.4 grammar this repo emits (and a
    scraper cares about): well-formed comment lines, legal metric and
    label syntax, parseable sample values, and cumulative-monotone
    ``le`` buckets per histogram.  The ``serve-smoke`` CI job fails on
    any violation.
    """
    errors: list[str] = []
    bucket_state: dict[str, tuple[float, int]] = {}  # base -> (le, cum)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_LINE.match(line):
                errors.append(f"line {lineno}: malformed comment {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name, labels, value = match.group(1), match.group(2), match.group(3)
        if labels and not _LABELS_OK.match(labels):
            errors.append(f"line {lineno}: malformed labels {labels!r}")
            continue
        try:
            parsed = float(value.replace("Inf", "inf"))
        except ValueError:
            errors.append(f"line {lineno}: unparseable value {value!r}")
            continue
        if name.endswith("_bucket") and labels and 'le="' in labels:
            le_text = labels.split('le="', 1)[1].split('"', 1)[0]
            try:
                le = float(le_text.replace("Inf", "inf"))
            except ValueError:
                errors.append(f"line {lineno}: unparseable le {le_text!r}")
                continue
            previous = bucket_state.get(name)
            if previous is not None:
                prev_le, prev_cum = previous
                if le <= prev_le:
                    errors.append(
                        f"line {lineno}: {name} le bounds must increase"
                    )
                if parsed < prev_cum:
                    errors.append(
                        f"line {lineno}: {name} cumulative count decreases"
                    )
            bucket_state[name] = (le, parsed)
    return errors


# -- the snapshot stream ----------------------------------------------


def snapshot_state(
    registry: Registry,
    *,
    seq: int,
    source: str,
    extra: Mapping | None = None,
    now: float | None = None,
) -> dict:
    """One ``repro.obs/metrics-snapshot/v1`` line as a JSON-ready dict.

    ``counters`` uses the exact RunRecord form (so the final snapshot
    of a drained daemon compares bit-identically against its drain-time
    record), ``timers`` each span histogram's ``total``/``count``/``max``,
    ``histograms`` the cumulative record form.
    """
    state = {
        "schema": SNAPSHOT_SCHEMA_ID,
        "seq": seq,
        "source": source,
        "time": time.time() if now is None else now,
        "counters": registry.counters(),
        "timers": {
            name: {"total": t.sum, "count": t.count, "max": t.max or 0.0}
            for name, t in registry.timers().items()
        },
        "histograms": registry.histograms_record(),
    }
    if extra:
        state["extra"] = dict(extra)
    return state


def validate_snapshot(obj: object) -> list[str]:
    """Schema-check one parsed snapshot line; returns violations."""
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return [f"snapshot must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != SNAPSHOT_SCHEMA_ID:
        errors.append(
            f"schema must be {SNAPSHOT_SCHEMA_ID!r}, got {obj.get('schema')!r}"
        )
    seq = obj.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        errors.append("seq must be an integer >= 0")
    if not isinstance(obj.get("source"), str) or not obj.get("source"):
        errors.append("source must be a non-empty string")
    stamp = obj.get("time")
    if (
        isinstance(stamp, bool)
        or not isinstance(stamp, (int, float))
        or not math.isfinite(stamp)
    ):
        errors.append("time must be a finite number")
    counters = obj.get("counters")
    if not isinstance(counters, Mapping):
        errors.append("counters must be an object")
    else:
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"counter {name!r} must be numeric")
            elif not math.isfinite(value):
                errors.append(f"counter {name!r} must be finite")
    timers = obj.get("timers", {})
    if not isinstance(timers, Mapping):
        errors.append("timers must be an object")
    histograms = obj.get("histograms", {})
    if not isinstance(histograms, Mapping):
        errors.append("histograms must be an object")
    else:
        for name, entry in histograms.items():
            errors.extend(validate_histogram_record(name, entry))
    if "extra" in obj and not isinstance(obj["extra"], Mapping):
        errors.append("extra must be an object")
    return errors


def parse_snapshots(text: str) -> list[dict]:
    """Parse a snapshot stream's text into a validated list.

    Lines are split by :func:`repro.obs.jsonl.parse_jsonl`, so a torn
    final line (a process killed mid-write) is dropped and a bad line
    anywhere else raises, exactly as for the checkpoint ledger.

    Raises:
        ValueError: on a bad line before the last, a schema violation,
            or a stream with no complete line.
    """
    snapshots, _ = parse_jsonl(text)
    if not snapshots:
        raise ValueError("snapshot stream has no complete line")
    for lineno, obj in enumerate(snapshots, start=1):
        errors = validate_snapshot(obj)
        if errors:
            raise ValueError(f"snapshot line {lineno}: " + "; ".join(errors))
    return snapshots


class SnapshotStream:
    """Appends ``repro.obs/metrics-snapshot/v1`` lines to a file.

    Each :meth:`write` renders the given registry, assigns the next
    ``seq`` and flushes the line immediately, so a tailing reader (or
    ``python -m repro obs tail``) always sees complete records plus at
    most one torn line at the end.  Thread-compatible with the serve
    daemon: writes happen under a lock, and the registry arguments are
    freshly-built merge copies, never live mutating state.
    """

    def __init__(self, path: str | Path, *, source: str = "repro"):
        self.path = Path(path)
        self.source = source
        self.seq = 0
        self._lock = threading.Lock()
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, registry: Registry, extra: Mapping | None = None) -> dict:
        """Append one snapshot of ``registry``; returns the written dict."""
        with self._lock:
            state = snapshot_state(
                registry, seq=self.seq, source=self.source, extra=extra
            )
            self.seq += 1
            self._fh.write(jsonl_line(state))
            self._fh.flush()
            return state

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "SnapshotStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PeriodicSnapshotter(threading.Thread):
    """A daemon thread snapshotting a live metrics source every
    ``interval`` seconds.

    ``render`` is called on the snapshotter's own thread and must
    return a fresh :class:`Registry` (the serve daemon hands out
    :meth:`~repro.serve.server.SolveServer.metrics_registry`, a merged
    copy safe to read off-loop).  ``stop()`` wakes the thread, writes
    one final snapshot, and joins — so a drained stream always ends on
    an up-to-date line.
    """

    def __init__(
        self,
        stream: SnapshotStream,
        render: Callable[[], Registry],
        interval: float = 1.0,
    ):
        super().__init__(daemon=True)
        check_duration("interval", interval)
        self.stream = stream
        self.render = render
        self.interval = interval
        # Not ``_stop``: threading.Thread owns a private method by that
        # name which the interpreter calls during join().
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.stream.write(self.render())

    def stop(self, timeout: float = 10.0) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout)
        self.stream.write(self.render())


# -- the HTTP exporter ------------------------------------------------


class MetricsExporter:
    """A minimal threaded ``/metrics`` endpoint (Prometheus scrape
    target).

    ``render`` is called per request on the serving thread and must
    return the exposition text; binding to port 0 lets the OS pick (the
    bound address is :attr:`address` after :meth:`start`).  Requests
    for any other path get 404.  Stdlib only — ``http.server`` is not a
    hardened web server, matching the daemon's own loopback-by-default
    posture; see the ops runbook in ``docs/serving.md``.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        exporter = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = exporter.render().encode("utf-8")
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    self.send_error(500, explain=str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", _CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: D102 - silence stderr
                pass

        self.render = render
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self.address: tuple[str, int] = self._server.server_address[:2]

    def start(self) -> tuple[str, int]:
        self._thread.start()
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        self._server.shutdown()
        self._thread.join(timeout)
        self._server.server_close()

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
