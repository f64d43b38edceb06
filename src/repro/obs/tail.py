"""``python -m repro obs tail`` — a live terminal view of telemetry.

Renders either live-telemetry file format (:mod:`repro.obs.expose`) as
a refreshing terminal table:

* a ``repro.obs/metrics-snapshot/v1`` JSONL stream (``--metrics-out``):
  the *latest* complete snapshot line is shown — counters, timers, and
  histogram percentiles;
* a Prometheus text exposition (v0.0.4), e.g. one scraped from the
  ``--metrics-port`` endpoint with ``curl ... > metrics.prom``.

The format is sniffed from the content, not the file name.  By default
the screen redraws every ``--interval`` seconds until interrupted;
``--once`` renders a single frame and exits (what the tests and quick
inspections use)::

    python -m repro serve --metrics-out /tmp/serve-metrics.jsonl &
    python -m repro obs tail /tmp/serve-metrics.jsonl

Percentiles come from the serialised cumulative buckets via
:func:`repro.obs.metrics.record_percentile` — no histogram objects are
rebuilt, so tailing works on any conforming file, including one still
being written (a torn trailing line is ignored).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from .metrics import record_percentile

__all__ = ["detect_format", "render_tail", "main"]

#: ANSI: clear screen, cursor home — the refresh between frames.
_CLEAR = "\x1b[2J\x1b[H"

_PERCENTILES = (50, 90, 95, 99)


def detect_format(text: str) -> str:
    """``"snapshot"`` (JSONL stream) or ``"exposition"`` (Prometheus).

    Sniffed from the first non-blank line: a snapshot stream is JSON
    objects (``{``), an exposition starts with a comment or a sample.
    """
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        return "snapshot" if stripped.startswith("{") else "exposition"
    return "snapshot"


def _table(headers: Sequence[str], rows: list[Sequence[str]]) -> str:
    """Left-aligned name column, right-aligned numbers; plain text."""
    if not rows:
        return "  (none)"
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    def fmt(cells) -> str:
        first = str(cells[0]).ljust(widths[0])
        rest = [str(c).rjust(widths[i + 1]) for i, c in enumerate(cells[1:])]
        return "  ".join([first] + rest)
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)


def _num(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def _histogram_rows(histograms: dict) -> list[list[str]]:
    rows = []
    for name in sorted(histograms):
        record = histograms[name]
        rows.append(
            [name, _num(record.get("count", 0))]
            + [_num(record_percentile(record, p)) for p in _PERCENTILES]
            + [_num(record.get("max") or 0.0)]
        )
    return rows


_HIST_HEADERS = ("histogram", "count", "p50", "p90", "p95", "p99", "max")


def _render_snapshot(text: str) -> str:
    from .expose import parse_snapshots

    snapshots = parse_snapshots(text)
    snap = snapshots[-1]
    stamp = time.strftime("%H:%M:%S", time.localtime(snap["time"]))
    out = [
        f"snapshot seq={snap['seq']} source={snap['source']} "
        f"written={stamp} ({len(snapshots)} snapshot(s) in file)",
        "",
        _table(
            ("counter", "value"),
            [[n, _num(v)] for n, v in sorted(snap["counters"].items())],
        ),
    ]
    timers = snap.get("timers", {})
    if timers:
        out += [
            "",
            _table(
                ("timer", "count", "total_s", "max_s"),
                [
                    [n, _num(t["count"]), _num(t["total"]), _num(t["max"])]
                    for n, t in sorted(timers.items())
                ],
            ),
        ]
    histograms = snap.get("histograms", {})
    if histograms:
        out += ["", _table(_HIST_HEADERS, _histogram_rows(histograms))]
    return "\n".join(out)


def _render_exposition(text: str) -> str:
    # Fold the sample lines back into counters and histogram records so
    # both formats render through the same tables.
    counters: dict[str, float] = {}
    buckets: dict[str, list] = {}
    hist: dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value_text = line.partition(" ")
        try:
            value = float(value_text.split()[0].replace("Inf", "inf"))
        except (ValueError, IndexError):
            continue
        labels = ""
        if "{" in name:
            name, _, labels = name.partition("{")
        if name.endswith("_bucket") and 'le="' in labels:
            base = name[: -len("_bucket")]
            le_text = labels.split('le="', 1)[1].split('"', 1)[0]
            le = float(le_text.replace("Inf", "inf"))
            if le == float("inf"):
                hist.setdefault(base, {})["count"] = int(value)
            else:
                buckets.setdefault(base, []).append([le, int(value)])
        elif name.endswith("_sum") and name[: -len("_sum")] in buckets:
            hist.setdefault(name[: -len("_sum")], {})["sum"] = value
        elif name.endswith("_count") and name[: -len("_count")] in buckets:
            hist.setdefault(name[: -len("_count")], {})["count"] = int(value)
        else:
            counters[name] = value
    out = [
        _table(
            ("metric", "value"),
            [[n, _num(v)] for n, v in sorted(counters.items())],
        )
    ]
    if buckets:
        histograms = {}
        for base, pairs in buckets.items():
            record = dict(hist.get(base, {}))
            record.setdefault("count", pairs[-1][1] if pairs else 0)
            record["buckets"] = sorted(pairs)
            histograms[base] = record
        out += ["", _table(_HIST_HEADERS, _histogram_rows(histograms))]
    return "\n".join(out)


def render_tail(text: str) -> str:
    """One rendered frame for ``text`` (either supported format)."""
    if detect_format(text) == "snapshot":
        return _render_snapshot(text)
    return _render_exposition(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cds obs tail",
        description=(
            "Render a live telemetry file — a repro.obs/metrics-snapshot/"
            "v1 JSONL stream or a Prometheus text exposition — as a "
            "refreshing terminal table."
        ),
    )
    parser.add_argument("file", help="snapshot JSONL or exposition file")
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default: 1.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (no screen clearing)",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2
    path = Path(args.file)
    while True:
        try:
            text = path.read_text()
        except OSError as exc:
            frame = f"cannot read {path}: {exc}"
        else:
            try:
                frame = render_tail(text)
            except ValueError as exc:
                frame = f"malformed telemetry in {path}: {exc}"
        try:
            if args.once:
                print(frame)
                return 0
            print(f"{_CLEAR}{path} — refreshing every {args.interval}s "
                  f"(ctrl-c to stop)\n\n{frame}", flush=True)
        except BrokenPipeError:
            # `obs tail ... | head` closing the pipe is a normal exit,
            # not an error; silence the interpreter's shutdown whinge.
            try:
                sys.stdout.close()
            except OSError:
                pass
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
