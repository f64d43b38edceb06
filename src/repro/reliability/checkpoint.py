"""The sweep checkpoint ledger: ``repro.reliability/checkpoint/v1``.

A sweep's progress is journalled as append-only JSONL — one header
line describing the grid, then one line per completed cell (or
terminal failure), each flushed and fsynced as it happens.  Kill the
process at any instant and the ledger still holds every finished cell;
a resumed sweep re-runs only the missing ones and merges to results
bit-identical to an uninterrupted run (the cells are deterministic per
seed, and the ledger stores their full result payloads).

Line shapes (schema-validated like the RunRecord, no third-party
jsonschema dependency):

* **header** — opens the file; pins the grid so a resume against the
  wrong sweep is rejected::

      {"schema": "repro.reliability/checkpoint/v1", "type": "sweep",
       "label": "solve:greedy:auto", "fingerprint": "ab12...",
       "cells": 12, "meta": {...}}

* **cell** — one completed cell with its (JSON-encoded) result::

      {"type": "cell", "key": "n=20;side=3.8;seed=1",
       "attempts": 1, "result": {...}}

* **failure** — a cell that exhausted its retries (re-run on resume)::

      {"type": "failure", "key": "...", "attempts": 3, "failure": {...}}

* **resume** — an informational marker appended when a session reopens
  the ledger::

      {"type": "resume", "completed": 7}

Crash-safety contract: a process killed mid-write leaves at most one
*partial trailing line*.  Readers drop it (reported via
:attr:`CheckpointLedger.truncated`; the rule is
:func:`repro.obs.jsonl.parse_jsonl`, shared by every JSONL stream in
the repo); re-opening for append first
truncates the file back to the last complete line so the journal never
accumulates garbage.  A *duplicate* ``cell`` key, or an invalid line
anywhere before the tail, is corruption and raises ``ValueError``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..obs.jsonl import jsonl_line, parse_jsonl
from .failures import CellFailure

__all__ = [
    "CHECKPOINT_SCHEMA_ID",
    "CheckpointLedger",
    "CheckpointWriter",
    "grid_fingerprint",
    "read_checkpoint",
    "validate_checkpoint_lines",
    "repair_trailing_line",
]

#: Version tag carried by every ledger header; bump on shape change.
CHECKPOINT_SCHEMA_ID = "repro.reliability/checkpoint/v1"

_LINE_TYPES = ("sweep", "cell", "failure", "resume")


def grid_fingerprint(keys: Sequence[str], label: str) -> str:
    """A stable digest of the sweep identity: its label and cell keys.

    Written into the header and re-derived on resume — a ledger whose
    fingerprint does not match the requested sweep is refused rather
    than silently merged into the wrong grid.
    """
    payload = json.dumps([label, list(keys)], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def validate_checkpoint_lines(lines: Sequence[Mapping]) -> list[str]:
    """Schema-check parsed ledger lines; returns violations (empty = ok)."""
    errors: list[str] = []
    if not lines:
        return ["ledger is empty (expected a sweep header)"]
    header = lines[0]
    if header.get("type") != "sweep":
        errors.append("first line must be the 'sweep' header")
    elif header.get("schema") != CHECKPOINT_SCHEMA_ID:
        errors.append(
            f"unknown checkpoint schema {header.get('schema')!r} "
            f"(expected {CHECKPOINT_SCHEMA_ID!r})"
        )
    else:
        for key in ("label", "fingerprint", "cells"):
            if key not in header:
                errors.append(f"header: missing {key!r}")
    seen_keys: set[str] = set()
    for i, line in enumerate(lines[1:], start=1):
        kind = line.get("type")
        if kind not in _LINE_TYPES:
            errors.append(f"line {i}: unknown type {kind!r}")
            continue
        if kind == "sweep":
            errors.append(f"line {i}: duplicate 'sweep' header")
        elif kind == "cell":
            key = line.get("key")
            if not isinstance(key, str) or not key:
                errors.append(f"line {i} (cell): missing 'key'")
                continue
            if key in seen_keys:
                errors.append(f"line {i} (cell): duplicate key {key!r}")
            seen_keys.add(key)
            if "result" not in line:
                errors.append(f"line {i} (cell): missing 'result'")
            attempts = line.get("attempts")
            if not isinstance(attempts, int) or attempts < 1:
                errors.append(f"line {i} (cell): 'attempts' must be an int >= 1")
        elif kind == "failure":
            if not isinstance(line.get("key"), str):
                errors.append(f"line {i} (failure): missing 'key'")
            if not isinstance(line.get("failure"), Mapping):
                errors.append(f"line {i} (failure): 'failure' must be an object")
    return errors


@dataclass
class CheckpointLedger:
    """A parsed, validated ledger.

    ``cells`` maps cell key to its ``cell`` line (``result`` payload and
    ``attempts``); ``failures`` keeps every recorded terminal failure
    (historical — failed cells are re-run on resume); ``truncated``
    flags a dropped partial trailing line (a mid-write crash).
    """

    header: dict
    cells: dict[str, dict] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)
    resumes: int = 0
    truncated: bool = False

    @property
    def label(self) -> str:
        return self.header["label"]

    @property
    def fingerprint(self) -> str:
        return self.header["fingerprint"]

    def result(self, key: str) -> object:
        return self.cells[key]["result"]

    def attempts(self, key: str) -> int:
        return self.cells[key]["attempts"]

    def missing(self, keys: Iterable[str]) -> list[str]:
        """The resume set: grid keys with no completed cell, in order."""
        return [k for k in keys if k not in self.cells]

    def check_grid(self, keys: Sequence[str], label: str) -> None:
        """Refuse to resume a sweep the ledger does not describe."""
        expected = grid_fingerprint(keys, label)
        if self.fingerprint != expected:
            raise ValueError(
                f"checkpoint does not match this sweep: ledger is "
                f"{self.label!r} over {self.header.get('cells')} cell(s) "
                f"(fingerprint {self.fingerprint}), requested {label!r} "
                f"over {len(keys)} cell(s) (fingerprint {expected})"
            )


def read_checkpoint(path: str | Path) -> CheckpointLedger:
    """Load and validate a ledger, dropping a partial trailing line.

    Raises:
        ValueError: on schema violations, a duplicate cell key, or
            malformed JSON before the final line.
        OSError: when the file cannot be read.
    """
    try:
        lines, truncated = parse_jsonl(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"checkpoint corrupt: {exc}") from None
    errors = validate_checkpoint_lines(lines)
    if errors:
        raise ValueError(
            f"invalid checkpoint {path}: " + "; ".join(errors)
        )
    ledger = CheckpointLedger(header=lines[0], truncated=truncated)
    for line in lines[1:]:
        if line["type"] == "cell":
            ledger.cells[line["key"]] = line
        elif line["type"] == "failure":
            ledger.failures.append(CellFailure.from_json_obj(line["failure"]))
        elif line["type"] == "resume":
            ledger.resumes += 1
    return ledger


def repair_trailing_line(path: str | Path) -> bool:
    """Truncate a ledger back to its last complete line, in place.

    Returns ``True`` when bytes were dropped.  Called before appending
    to a ledger a previous session may have died while writing.

    Raises:
        ValueError: on a bad line before the final one, as
            :func:`read_checkpoint` does.
    """
    path = Path(path)
    data = path.read_bytes()
    _, torn = parse_jsonl(data.decode("utf-8", errors="replace"))
    if not torn:
        return False
    # The torn line is whatever follows the last newline before it.
    body = data[:-1] if data.endswith(b"\n") else data
    cut = body.rfind(b"\n") + 1
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return True


class CheckpointWriter:
    """Append-only, fsync-per-line journal of sweep progress.

    ``resume=False`` starts a fresh ledger (truncating any existing
    file); ``resume=True`` repairs a partial trailing line and appends
    a ``resume`` marker.  Every record is written as one line then
    flushed **and fsynced** before :meth:`record_cell` returns — the
    durability contract the crash-recovery guarantee rests on.

    Use as a context manager or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        keys: Sequence[str],
        label: str,
        meta: Mapping | None = None,
        resume: bool = False,
        completed: int = 0,
    ):
        self.path = Path(path)
        self.fingerprint = grid_fingerprint(keys, label)
        if resume and self.path.exists():
            repair_trailing_line(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._write_line({"type": "resume", "completed": completed})
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write_line(
                {
                    "schema": CHECKPOINT_SCHEMA_ID,
                    "type": "sweep",
                    "label": label,
                    "fingerprint": self.fingerprint,
                    "cells": len(keys),
                    "meta": dict(meta or {}),
                }
            )

    def _write_line(self, obj: Mapping) -> None:
        self._fh.write(jsonl_line(obj))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_cell(self, key: str, result: object, attempts: int) -> None:
        """Journal one completed cell (``result`` must be JSON-ready)."""
        self._write_line(
            {"type": "cell", "key": key, "attempts": attempts, "result": result}
        )

    def record_failure(self, failure: CellFailure) -> None:
        """Journal a terminal failure (informational; re-run on resume)."""
        self._write_line(
            {
                "type": "failure",
                "key": failure.key,
                "attempts": failure.attempts,
                "failure": failure.to_json_obj(),
            }
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
