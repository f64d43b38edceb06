"""The one reader of the append-only JSONL streams.

The checkpoint ledger (:mod:`repro.reliability.checkpoint`), the
metrics-snapshot stream (:mod:`repro.obs.expose`, read by ``obs tail``
and ``python -m repro.obs.validate``) and the span event log
(:mod:`repro.obs.events`) are all one JSON object per line, written by
a process that may be killed mid-write.  :func:`parse_jsonl` is where
their shared torn-tail rule lives; each reader adds only its schema.
:func:`jsonl_line` is their one line encoder.
"""

from __future__ import annotations

import json

__all__ = ["jsonl_line", "parse_jsonl"]


def jsonl_line(obj) -> str:
    """One stream line: ``obj`` as key-sorted JSON plus the newline."""
    return json.dumps(obj, sort_keys=True) + "\n"


def parse_jsonl(text: str) -> tuple[list[dict], bool]:
    """Split a stream's text into its objects and a torn-tail flag.

    Only the final line may be torn: a final line with no newline, or
    one that is not a JSON object, is the signature of a writer killed
    mid-write and is dropped (``torn`` is then ``True``).  Any earlier
    line that is not a JSON object — a blank line included — is
    corruption.

    Raises:
        ValueError: for a bad line before the final one, naming its
            1-based line number.
    """
    *lines, unterminated = text.split("\n")
    torn = unterminated != ""
    objects: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except ValueError as exc:
            problem = f"is not valid JSON ({exc})"
        else:
            if isinstance(obj, dict):
                objects.append(obj)
                continue
            problem = "is not a JSON object"
        if lineno == len(lines) and not torn:
            # A newline survived but the payload did not: still torn.
            return objects, True
        raise ValueError(f"line {lineno} {problem}")
    return objects, torn
