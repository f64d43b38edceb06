"""Human-readable rendering of registries and run records.

The CLI's ``--trace`` flag prints this after a run; it is also the
quickest way to eyeball a saved ``RunRecord``::

    python -m repro.obs.report rec.json
"""

from __future__ import annotations

import io

from .core import Registry
from .record import RunRecord

__all__ = ["render_report", "render_record"]


def render_report(registry: Registry, title: str = "instrumentation") -> str:
    """Fixed-width tables of a registry's counters and timers."""
    out = io.StringIO()
    out.write(f"== {title} ==\n")
    counters = registry.counters()
    timers = registry.timers()
    if not counters and not timers:
        out.write("(no activity recorded)\n")
        return out.getvalue()
    if counters:
        out.write(_table(
            ("counter", "value"),
            [(name, _num(value)) for name, value in counters.items()],
        ))
    if timers:
        if counters:
            out.write("\n")
        out.write(_table(
            ("timer", "total s", "count", "mean s"),
            [
                (name, f"{t.sum:.6f}", str(t.count), f"{t.mean:.6f}")
                for name, t in timers.items()
            ],
        ))
    return out.getvalue()


def render_record(record: RunRecord) -> str:
    """Pretty-print a :class:`RunRecord` (identity, then activity)."""
    out = io.StringIO()
    out.write(f"== run record: {record.algorithm} ==\n")
    if record.seed is not None:
        out.write(f"seed: {record.seed}\n")
    for label, mapping in (("instance", record.instance), ("results", record.results)):
        if mapping:
            pairs = "  ".join(f"{k}={v}" for k, v in mapping.items())
            out.write(f"{label}: {pairs}\n")
    if record.counters:
        out.write(_table(
            ("counter", "value"),
            [(name, _num(value)) for name, value in sorted(record.counters.items())],
        ))
    if record.timings:
        out.write(_table(
            ("timer", "total s", "count"),
            [
                (name, f"{entry['seconds']:.6f}", str(entry["count"]))
                for name, entry in sorted(record.timings.items())
            ],
        ))
    return out.getvalue()


def _num(value: int | float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6f}"
    return str(int(value))


def _table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin CLI
    import sys

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.obs.report <record.json>", file=sys.stderr)
        return 2
    print(render_record(RunRecord.load(args[0])), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
