"""The ``sweep`` CLI mode and the experiments-mode reliability flags."""

import json

import pytest

from repro.cli import main
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _clean_default_registry():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def sweep(*extra):
    return main(["sweep", "--ns", "10,12", "--seeds", "0:2", *extra])


class TestSweepMode:
    def test_basic_grid(self, capsys):
        assert sweep() == 0
        out = capsys.readouterr().out
        assert "sweep: greedy" in out
        assert "4/4 cell(s) ok" in out

    def test_jobs_output_identical_to_serial(self, capsys):
        assert sweep() == 0
        serial = capsys.readouterr().out
        assert sweep("--jobs", "2") == 0
        assert capsys.readouterr().out == serial

    def test_checkpoint_resume_reprints_same_table(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        assert sweep("--checkpoint", path) == 0
        first = capsys.readouterr().out
        assert sweep("--checkpoint", path, "--resume") == 0
        resumed = capsys.readouterr().out

        def table(text):
            return [ln for ln in text.splitlines() if ln and "cell(s)" not in ln]

        assert table(resumed) == table(first)
        assert "(4 resumed" in resumed

    @pytest.mark.parametrize("kernel", ["bitset", "array"])
    def test_kernel_pinning(self, kernel, capsys):
        assert sweep("--algorithm", "waf", "--kernel", kernel) == 0
        assert f"kernel={kernel}" in capsys.readouterr().out

    def test_inject_fault_fails_matching_cells_only(self, capsys):
        code = sweep(
            "--inject-fault", "site=greedy.phase2;action=raise;scope=*seed=1*"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "2/4 cell(s) ok" in captured.out
        assert "2 of 4 cell(s) failed" in captured.err
        assert "InjectedFault" in captured.err

    def test_trace_reports_merged_and_reliability_counters(self, capsys):
        assert sweep("--trace") == 0
        out = capsys.readouterr().out
        assert "reliability.cells.completed" in out
        assert "mis.selected" in out  # per-cell solver counters merged

    def test_stats_out_writes_record(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        assert sweep("--stats-out", str(path)) == 0
        record = json.loads(path.read_text())
        assert record["algorithm"] == "sweep:greedy"
        assert record["instance"]["cells"] == 4
        assert record["results"]["ok"] == 4

    def test_resume_requires_checkpoint(self, capsys):
        assert sweep("--resume") == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_bad_grid_spec(self, capsys):
        assert main(["sweep", "--ns", "abc"]) == 2
        assert "--ns" in capsys.readouterr().err

    def test_bad_fault_spec(self, capsys):
        assert sweep("--inject-fault", "action=raise") == 2
        assert "site" in capsys.readouterr().err

    def test_checkpoint_grid_mismatch(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        assert sweep("--checkpoint", path) == 0
        capsys.readouterr()
        code = main(
            ["sweep", "--ns", "10", "--seeds", "0",
             "--checkpoint", path, "--resume"]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err


class TestExperimentsReliabilityFlags:
    CHEAP = ["F1F2", "T6"]

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        path = str(tmp_path / "exps.jsonl")
        assert main([*self.CHEAP, "--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert main([*self.CHEAP, "--checkpoint", path, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "all 2 experiment(s) passed" in first
        # Resumed run replays the journalled tables byte-identically.
        assert [
            ln for ln in resumed.splitlines() if ln.startswith(("==", "["))
        ] == [ln for ln in first.splitlines() if ln.startswith(("==", "["))]

    def test_resilient_output_matches_plain_run(self, capsys):
        assert main(self.CHEAP) == 0
        plain = capsys.readouterr().out
        assert main([*self.CHEAP, "--retries", "1"]) == 0
        assert capsys.readouterr().out == plain

    def test_injected_fault_isolates_one_experiment(self, capsys):
        code = main(
            [*self.CHEAP, "--jobs", "2",
             "--inject-fault", "site=*;action=raise;scope=*T6*"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "[F1F2]" in captured.out  # the healthy experiment completed
        assert "1 of 2 cell(s) failed" in captured.err

    def test_resume_refuses_timer_state_without_layout(self, tmp_path, capsys):
        # A ledger whose journalled registry state carries a timer in
        # the {total, count, max} form (no histogram layout) must stop
        # the resume with exit 2, not merge it as an empty span.
        path = tmp_path / "exps.jsonl"
        rec = str(tmp_path / "rec.json")
        assert main(["F1F2", "--checkpoint", str(path), "--stats-out", rec]) == 0
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        (cell,) = [ln for ln in lines if ln["type"] == "cell"]
        timers = cell["result"]["state"]["timers"]
        for name, state in timers.items():
            timers[name] = {
                "total": state["sum"], "count": state["count"], "max": state["max"]
            }
        path.write_text("".join(json.dumps(ln) + "\n" for ln in lines))
        capsys.readouterr()
        code = main(
            ["F1F2", "--checkpoint", str(path), "--resume", "--stats-out", rec]
        )
        assert code == 2
        assert "'experiment.F1F2'" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main([*self.CHEAP, "--resume"]) == 2
