"""Tests for the counter gate ``benchmarks/check_counters.py``.

Every run here is on the 20-node fixture so the gate's own tests stay
in the fast tier; each failure mode must name the offending row.
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
try:
    import check_counters
finally:
    sys.path.pop(0)

COMMITTED = json.loads(check_counters.EXPECTED_PATH.read_text())


def _write(path, rows):
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return str(path)


def _check(expected, *argv):
    return check_counters.main(["--expected", expected, "--fixtures", "udg20", *argv])


@pytest.fixture
def rows():
    """A private copy of the committed expectations."""
    return json.loads(json.dumps(COMMITTED))


class TestGate:
    def test_committed_rows_pass(self, capsys):
        assert _check(str(check_counters.EXPECTED_PATH), "--cases", "greedy,waf") == 0
        assert "all 2 rows match" in capsys.readouterr().out

    def test_tampered_counter_fails(self, tmp_path, rows, capsys):
        rows["greedy/udg20"]["counters"]["gain.evaluations"] += 1
        assert _check(_write(tmp_path / "e.json", rows), "--cases", "greedy") == 1
        err = capsys.readouterr().err
        assert "greedy/udg20: counter 'gain.evaluations'" in err

    def test_tampered_result_fails(self, tmp_path, rows, capsys):
        rows["waf/udg20"]["results"]["cds_size"] += 1
        assert _check(_write(tmp_path / "e.json", rows), "--cases", "waf") == 1
        assert "waf/udg20: results" in capsys.readouterr().err

    def test_expected_row_missing_from_run_fails(self, tmp_path, rows, capsys):
        # A row whose case left the case table must not pass silently.
        rows["retired_case/udg20"] = rows["greedy/udg20"]
        assert _check(_write(tmp_path / "e.json", rows)) == 1
        err = capsys.readouterr().err
        assert "retired_case/udg20: expected row did not run" in err

    def test_row_without_expectation_fails(self, tmp_path, rows, capsys):
        del rows["greedy/udg20"]
        expected = _write(tmp_path / "e.json", rows)
        assert _check(expected, "--cases", "greedy,waf") == 1
        assert "greedy/udg20: ran with no expectation" in capsys.readouterr().err

    def test_raising_row_is_reported_and_others_still_compared(
        self, tmp_path, rows, monkeypatch, capsys
    ):
        real_cases = check_counters._cases

        def cases(fixture, points, graph):
            table = real_cases(fixture, points, graph)

            def boom():
                raise RuntimeError("waf exploded")

            return {**table, "waf": boom}

        monkeypatch.setattr(check_counters, "_cases", cases)
        rows["greedy/udg20"]["counters"]["gain.evaluations"] += 1
        expected = _write(tmp_path / "e.json", rows)
        assert _check(expected, "--cases", "waf,greedy") == 1
        err = capsys.readouterr().err
        assert "1 of 2 cell(s) failed" in err
        assert "waf/udg20: exception after 1 attempt(s) (RuntimeError: waf exploded)" in err
        assert "waf/udg20: expected row did not run" not in err
        # the row that completed was still compared
        assert "greedy/udg20: counter 'gain.evaluations'" in err

    def test_unknown_names_are_usage_errors(self, capsys):
        assert check_counters.main(["--fixtures", "udg7"]) == 2
        assert "unknown fixture 'udg7'" in capsys.readouterr().err
        assert check_counters.main(["--fixtures", "udg20", "--cases", "nope"]) == 2
        assert "unknown case 'nope'" in capsys.readouterr().err


class TestUpdate:
    def test_subset_update_leaves_other_rows_byte_identical(
        self, tmp_path, rows, capsys
    ):
        rows["greedy/udg20"]["counters"]["gain.evaluations"] += 1
        # Rows outside the selection keep even a wrong value untouched.
        rows["waf/udg20"]["seed"] = 99
        expected = _write(tmp_path / "e.json", rows)
        assert _check(expected, "--cases", "greedy", "--update") == 0

        rows["greedy/udg20"] = COMMITTED["greedy/udg20"]
        assert Path(expected).read_text() == (
            json.dumps(rows, indent=2, sort_keys=True) + "\n"
        )
