"""Schema validation as a command: ``python -m repro.obs.validate rec.json``.

Exits 0 when every given file is valid, 1 otherwise, printing each
violation — what the CI smoke jobs run against the artifacts the CLI
emits.  Two formats are recognised, sniffed per file:

* a ``repro.obs/run-record/v1`` JSON record (``--stats-out``),
  including the optional ``histograms`` section (finite bucket bounds,
  non-negative cumulative-monotone counts);
* a ``repro.obs/metrics-snapshot/v1`` JSONL stream (``--metrics-out``),
  validated by :func:`repro.obs.expose.parse_snapshots` (a torn final
  line is dropped, as every reader of the stream drops it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Sequence

from .record import SCHEMA_ID, validate_run_record

__all__ = ["main"]


def _validate_file(name: str, text: str) -> list[str]:
    """Violations in ``text``, whichever format it is."""
    from .expose import SNAPSHOT_SCHEMA_ID, parse_snapshots

    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if obj is not None and not (
        isinstance(obj, dict) and obj.get("schema") == SNAPSHOT_SCHEMA_ID
    ):
        return validate_run_record(obj)
    # Not a single run record: treat as a snapshot stream (also covers
    # the degenerate one-line stream).
    try:
        parse_snapshots(text)
    except ValueError as exc:
        return [str(exc)]
    return []


def _schema_of(text: str) -> str:
    from .expose import SNAPSHOT_SCHEMA_ID

    for line in text.splitlines():
        if line.strip():
            return SNAPSHOT_SCHEMA_ID if f'"{SNAPSHOT_SCHEMA_ID}"' in line else SCHEMA_ID
    return SCHEMA_ID


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print(
            "usage: python -m repro.obs.validate <record.json|snapshots.jsonl> [...]",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for name in args:
        try:
            text = Path(name).read_text()
        except OSError as exc:
            print(f"{name}: unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        errors = _validate_file(name, text)
        if errors:
            failures += 1
            for err in errors:
                print(f"{name}: {err}", file=sys.stderr)
        else:
            print(f"{name}: valid {_schema_of(text)}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
