"""One JSONL reader, one behaviour: the checkpoint ledger, the metrics
snapshot stream, ``repro.obs.validate`` and the span event log all
split their text with :func:`repro.obs.jsonl.parse_jsonl`, so the same
damage gets the same outcome from every one of them."""

import json

import pytest

from repro.obs import Registry
from repro.obs.events import EVENT_SCHEMA_ID, parse_events
from repro.obs.expose import parse_snapshots, snapshot_state
from repro.obs.jsonl import parse_jsonl
from repro.obs.validate import _validate_file
from repro.reliability.checkpoint import CHECKPOINT_SCHEMA_ID, read_checkpoint


def ledger_records():
    header = {
        "schema": CHECKPOINT_SCHEMA_ID, "type": "sweep", "label": "t",
        "fingerprint": "f", "cells": 2, "meta": {},
    }
    cells = [
        {"type": "cell", "key": key, "attempts": 1, "result": key}
        for key in ("a", "b")
    ]
    return [header, *cells]


def snapshot_records():
    return [
        snapshot_state(Registry(), seq=seq, source="t", now=1.0)
        for seq in range(3)
    ]


def event_records():
    header = {
        "schema": EVENT_SCHEMA_ID, "type": "run", "run": "r", "worker": 0,
        "seq": 0,
    }
    notes = [
        {"type": "note", "name": "n", "data": {}, "t": 0.1 * seq,
         "worker": 0, "seq": seq}
        for seq in (1, 2)
    ]
    return [header, *notes]


def read_ledger(text, tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text(text)
    ledger = read_checkpoint(path)
    return 1 + len(ledger.cells), ledger.truncated


def read_snapshot_stream(text, tmp_path):
    return len(parse_snapshots(text)), None


def read_with_validate(text, tmp_path):
    errors = _validate_file("stream.jsonl", text)
    if errors:
        raise ValueError("; ".join(errors))
    return None, None


def read_event_log(text, tmp_path):
    return len(parse_events(text)), None


READERS = {
    "ledger": (ledger_records, read_ledger),
    "snapshot": (snapshot_records, read_snapshot_stream),
    "validate": (snapshot_records, read_with_validate),
    "events": (event_records, read_event_log),
}


def lines(records):
    return [json.dumps(r, sort_keys=True) for r in records]


# Each case: text from three valid records -> (records read, torn) for
# an accepted stream, or ("raise", line number or None).
CASES = {
    "clean": (lambda a, b, c: f"{a}\n{b}\n{c}\n", (3, False)),
    "torn tail, no newline": (lambda a, b, c: f"{a}\n{b}\n{c[:12]}", (2, True)),
    "newline-terminated bad tail": (
        lambda a, b, c: f"{a}\n{b}\n{c[:12]}\n", (2, True)
    ),
    "non-object tail": (lambda a, b, c: f"{a}\n{b}\n[1, 2]\n", (2, True)),
    "non-object line mid-file": (
        lambda a, b, c: f"{a}\n[1, 2]\n{c}\n", ("raise", 2)
    ),
    "bad line mid-file": (lambda a, b, c: f"{a}\n{{broken\n{c}\n", ("raise", 2)),
    "blank line mid-file": (lambda a, b, c: f"{a}\n\n{c}\n", ("raise", 2)),
    "empty text": (lambda a, b, c: "", ("raise", None)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", list(CASES))
def test_same_outcome_from_every_reader(reader, case, tmp_path):
    make_records, read = READERS[reader]
    build, expected = CASES[case]
    text = build(*lines(make_records()))
    if expected[0] == "raise":
        _, lineno = expected
        match = f"line {lineno} " if lineno else None
        with pytest.raises(ValueError, match=match):
            read(text, tmp_path)
        return
    records, torn = read(text, tmp_path)
    # validate reports no count; snapshot/events readers no torn flag.
    assert records in (None, expected[0])
    assert torn in (None, expected[1])


@pytest.mark.parametrize("case", list(CASES))
def test_parse_jsonl_is_the_rule(case):
    build, expected = CASES[case]
    text = build(*lines(snapshot_records()))
    if expected[0] == "raise" and expected[1] is not None:
        with pytest.raises(ValueError, match=f"line {expected[1]} "):
            parse_jsonl(text)
        return
    objects, torn = parse_jsonl(text)
    if case == "empty text":
        assert (objects, torn) == ([], False)
    else:
        assert (len(objects), torn) == expected
