"""The checkpoint ledger: durable, schema-checked, crash-tolerant."""

import pytest

from repro.reliability import (
    CHECKPOINT_SCHEMA_ID,
    CellFailure,
    CheckpointWriter,
    grid_fingerprint,
    read_checkpoint,
    repair_trailing_line,
    validate_checkpoint_lines,
)

KEYS = ["n=10;seed=0", "n=10;seed=1", "n=20;seed=0"]


def write_ledger(path, cells=2, label="sweep"):
    with CheckpointWriter(path, keys=KEYS, label=label) as writer:
        for key in KEYS[:cells]:
            writer.record_cell(key, {"value": key}, attempts=1)
    return path


class TestGridFingerprint:
    def test_stable(self):
        assert grid_fingerprint(KEYS, "a") == grid_fingerprint(list(KEYS), "a")

    def test_sensitive_to_label_keys_and_order(self):
        base = grid_fingerprint(KEYS, "a")
        assert grid_fingerprint(KEYS, "b") != base
        assert grid_fingerprint(KEYS[:2], "a") != base
        assert grid_fingerprint(list(reversed(KEYS)), "a") != base


class TestWriterAndReader:
    def test_round_trip(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        ledger = read_checkpoint(path)
        assert ledger.header["schema"] == CHECKPOINT_SCHEMA_ID
        assert ledger.label == "sweep"
        assert ledger.fingerprint == grid_fingerprint(KEYS, "sweep")
        assert set(ledger.cells) == set(KEYS[:2])
        assert ledger.result(KEYS[0]) == {"value": KEYS[0]}
        assert ledger.attempts(KEYS[0]) == 1
        assert not ledger.truncated

    def test_missing_is_resume_set_in_grid_order(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl", cells=1)
        assert read_checkpoint(path).missing(KEYS) == KEYS[1:]

    def test_check_grid_refuses_other_sweep(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        ledger = read_checkpoint(path)
        ledger.check_grid(KEYS, "sweep")  # matching grid: fine
        with pytest.raises(ValueError, match="does not match"):
            ledger.check_grid(KEYS, "other-label")
        with pytest.raises(ValueError, match="does not match"):
            ledger.check_grid(KEYS + ["n=30;seed=0"], "sweep")

    def test_failures_recorded_and_read_back(self, tmp_path):
        path = tmp_path / "c.jsonl"
        failure = CellFailure(
            key=KEYS[0], kind="timeout", attempts=2,
            error_type="TimeoutError", message="too slow",
        )
        with CheckpointWriter(path, keys=KEYS, label="sweep") as writer:
            writer.record_failure(failure)
        ledger = read_checkpoint(path)
        assert ledger.failures == [failure]
        assert ledger.missing(KEYS) == KEYS  # failures re-run on resume

    def test_resume_mode_appends_marker(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl", cells=1)
        with CheckpointWriter(
            path, keys=KEYS, label="sweep", resume=True, completed=1
        ) as writer:
            writer.record_cell(KEYS[1], {"value": KEYS[1]}, attempts=1)
        ledger = read_checkpoint(path)
        assert ledger.resumes == 1
        assert set(ledger.cells) == set(KEYS[:2])

    def test_fresh_mode_truncates_existing(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        with CheckpointWriter(path, keys=KEYS, label="sweep"):
            pass
        assert read_checkpoint(path).cells == {}


class TestCrashTolerance:
    def test_partial_trailing_line_dropped(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        complete = read_checkpoint(path)
        with open(path, "a") as fh:
            fh.write('{"type": "cell", "key": "n=20;se')  # mid-write kill
        ledger = read_checkpoint(path)
        assert ledger.truncated
        assert ledger.cells == complete.cells

    def test_repair_truncates_partial_tail(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        size = path.stat().st_size
        with open(path, "a") as fh:
            fh.write('{"type": "cel')
        assert repair_trailing_line(path)
        assert path.stat().st_size == size
        assert not read_checkpoint(path).truncated

    def test_repair_noop_on_clean_file(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        assert not repair_trailing_line(path)

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = "NOT JSON"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_checkpoint(path)

    def test_duplicate_cell_key_raises(self, tmp_path):
        path = write_ledger(tmp_path / "c.jsonl", cells=1)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(ValueError, match="duplicate key"):
            read_checkpoint(path)


class TestValidation:
    def header(self):
        return {
            "schema": CHECKPOINT_SCHEMA_ID, "type": "sweep",
            "label": "s", "fingerprint": "f", "cells": 3,
        }

    def test_clean_lines_pass(self):
        lines = [
            self.header(),
            {"type": "cell", "key": "a", "attempts": 1, "result": 1},
            {"type": "resume", "completed": 1},
        ]
        assert validate_checkpoint_lines(lines) == []

    def test_empty_and_headerless(self):
        assert validate_checkpoint_lines([]) != []
        assert any(
            "header" in e
            for e in validate_checkpoint_lines([{"type": "cell", "key": "a"}])
        )

    def test_wrong_schema(self):
        header = dict(self.header(), schema="something/v9")
        assert any("schema" in e for e in validate_checkpoint_lines([header]))

    def test_cell_shape_violations(self):
        bad = [
            {"type": "cell", "attempts": 1, "result": 1},  # no key
            {"type": "cell", "key": "a", "result": 1},  # no attempts
            {"type": "cell", "key": "b", "attempts": 0, "result": 1},
            {"type": "cell", "key": "c", "attempts": 1},  # no result
            {"type": "wat"},
        ]
        errors = validate_checkpoint_lines([self.header()] + bad)
        assert len(errors) == len(bad)
