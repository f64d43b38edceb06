"""Tests for the 'solve' CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.graphs import random_connected_udg
from repro.io import load_result, save_points


@pytest.fixture
def deployment(tmp_path):
    pts, _ = random_connected_udg(20, 4.0, seed=3)
    path = tmp_path / "deploy.csv"
    save_points(pts, path)
    return str(path)


class TestSolve:
    def test_basic_run(self, deployment, capsys):
        assert main(["solve", deployment]) == 0
        out = capsys.readouterr().out
        assert "backbone size" in out
        assert "greedy-connector" in out

    def test_algorithm_choice(self, deployment, capsys):
        assert main(["solve", deployment, "--algorithm", "waf"]) == 0
        assert "waf" in capsys.readouterr().out

    def test_baseline_choice(self, deployment, capsys):
        assert main(["solve", deployment, "--algorithm", "guha-khuller"]) == 0
        assert "guha-khuller" in capsys.readouterr().out

    def test_out_file_roundtrips(self, deployment, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert main(["solve", deployment, "--out", str(out_file)]) == 0
        result = load_result(out_file)
        assert result.size > 0

    def test_prune_flag(self, deployment, capsys):
        assert main(["solve", deployment, "--prune"]) == 0
        assert "+prune" in capsys.readouterr().out

    def test_ratio_flag(self, deployment, capsys):
        assert main(["solve", deployment, "--ratio"]) == 0
        assert "gamma_c" in capsys.readouterr().out

    def test_viz_flag(self, deployment, capsys):
        assert main(["solve", deployment, "--viz"]) == 0
        out = capsys.readouterr().out
        assert "D dominator" in out

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/deploy.csv"]) == 2

    def test_non_finite_coordinate_is_an_input_error(self, tmp_path, capsys):
        # Not silently dropped into a "largest component" of the rest.
        path = tmp_path / "nan.csv"
        path.write_text("x,y\n0,0\n0.5,0\nnan,0\n1.0,0\n")
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert "non-finite coordinates" in captured.err
        assert "largest component" not in captured.out

    def test_duplicate_points_are_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n0,0\n0.5,0\n0.5,0\n")
        assert main(["solve", str(path)]) == 2
        assert "duplicate points" in capsys.readouterr().err

    def test_empty_deployment(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        assert main(["solve", str(path)]) == 2

    def test_disconnected_deployment_is_an_input_error(self, tmp_path, capsys):
        # Never silently solved on a component of it.
        from repro.geometry import Point
        from repro.io import save_points as sp

        pts = [Point(0, 0), Point(0.5, 0), Point(0.9, 0.2), Point(50, 50)]
        path = tmp_path / "disc.csv"
        out_file = tmp_path / "result.json"
        sp(pts, path)
        assert main(["solve", str(path), "--ratio", "--out", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "invalid deployment: disconnected into 2 components "
            "(the largest has 3 of 4 nodes)"
        )
        assert "backbone" not in captured.out
        assert not out_file.exists()

    def test_unknown_algorithm_rejected(self, deployment):
        with pytest.raises(SystemExit):
            main(["solve", deployment, "--algorithm", "magic"])


class TestKernelFlag:
    @pytest.mark.parametrize("kernel", ["auto", "indexed", "bitset", "array"])
    def test_kernel_accepted_for_greedy(self, deployment, kernel, capsys):
        assert main(["solve", deployment, "--kernel", kernel]) == 0
        assert "backbone size" in capsys.readouterr().out

    def test_kernels_solve_identically(self, deployment, tmp_path):
        sizes = {}
        for kernel in ("indexed", "bitset", "array"):
            out_file = tmp_path / f"{kernel}.json"
            assert main(
                ["solve", deployment, "--kernel", kernel, "--out", str(out_file)]
            ) == 0
            result = load_result(out_file)
            sizes[kernel] = (result.size, sorted(map(str, result.nodes)))
        assert sizes["indexed"] == sizes["bitset"] == sizes["array"]

    @pytest.mark.parametrize("kernel", ["bitset", "array"])
    def test_kernel_accepted_for_waf(self, deployment, kernel, capsys):
        assert (
            main(
                ["solve", deployment, "--algorithm", "waf", "--kernel", kernel]
            )
            == 0
        )

    def test_unknown_kernel_rejected(self, deployment):
        with pytest.raises(SystemExit):
            main(["solve", deployment, "--kernel", "numpy"])

    def test_kernel_rejected_for_unkernelized_solver(self, deployment, capsys):
        code = main(
            ["solve", deployment, "--algorithm", "steiner", "--kernel", "bitset"]
        )
        assert code == 2
        assert "not supported" in capsys.readouterr().err

    def test_auto_kernel_fine_for_unkernelized_solver(self, deployment):
        assert main(["solve", deployment, "--algorithm", "steiner"]) == 0


class TestJobsValidation:
    def test_zero_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--all", "--jobs", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["T8", "--jobs", "-3"])
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["T8", "--jobs", "many"])
        assert "invalid int value" in capsys.readouterr().err

    def test_bench_script_rejects_bad_jobs(self, capsys):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            import check_counters
        finally:
            sys.path.pop(0)
        with pytest.raises(SystemExit):
            check_counters.main(["--jobs", "0"])
        assert "positive integer" in capsys.readouterr().err


class TestSolveStats:
    def test_stats_out_writes_valid_record(self, deployment, tmp_path, capsys):
        from repro.obs import validate_run_record

        rec_file = tmp_path / "rec.json"
        assert main(["solve", deployment, "--stats-out", str(rec_file)]) == 0
        obj = json.loads(rec_file.read_text())
        assert validate_run_record(obj) == []
        # The acceptance contract: greedy emits non-zero operation
        # counts and phase timings.
        assert obj["algorithm"] == "greedy-connector"
        assert obj["counters"]["gain.evaluations"] > 0
        assert obj["counters"]["gain.dsu_unions"] > 0
        assert obj["timings"]["greedy.phase1"]["seconds"] >= 0
        assert obj["timings"]["greedy.phase2"]["count"] == 1
        assert obj["results"]["cds_size"] > 0
        assert obj["instance"]["nodes"] == 20

    def test_stats_out_spans_the_io_layers(self, deployment, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        rec_file = tmp_path / "rec.json"
        argv = ["solve", deployment, "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--stats-out", str(rec_file)]) == 0
        timings = json.loads(rec_file.read_text())["timings"]
        # Named as the per-layer rows of BENCHMARK.json, minus "_s".
        for span in (
            "io.load_points",
            "graphs.is_connected",
            "cds.validate",
            "io.save_result",
        ):
            assert timings[span]["count"] == 1
            assert timings[span]["seconds"] >= 0
        assert validate_main([str(rec_file)]) == 0

    def test_trace_prints_report(self, deployment, capsys):
        assert main(["solve", deployment, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "instrumentation" in out
        assert "gain.evaluations" in out

    def test_stats_off_by_default(self, deployment, capsys):
        from repro.obs import OBS

        assert main(["solve", deployment]) == 0
        assert not OBS.enabled

    def test_experiments_stats_out(self, tmp_path, capsys):
        from repro.obs import validate_run_record

        rec_file = tmp_path / "rec.json"
        assert main(["LEM", "--stats-out", str(rec_file)]) == 0
        obj = json.loads(rec_file.read_text())
        assert validate_run_record(obj) == []
        assert obj["algorithm"] == "experiment:LEM"
        assert obj["results"]["failed"] == []

    def test_run_recorded_helper(self):
        from repro.experiments import run_recorded
        from repro.obs import validate_run_record

        result, record = run_recorded("LEM")
        assert result.passed
        assert record.results["passed"] is True
        assert record.timings["experiment.LEM"]["count"] == 1
        assert validate_run_record(record.to_json_obj()) == []


class TestParallelStats:
    """--jobs N with observability: merged output must equal serial."""

    CHEAP = ["F1F2", "T6"]

    def run_stats(self, tmp_path, name, jobs, ids=CHEAP):
        rec_file = tmp_path / name
        argv = ids + ["--stats-out", str(rec_file)]
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        assert main(argv) == 0
        return json.loads(rec_file.read_text())

    def test_parallel_record_valid_and_counters_equal_serial(
        self, tmp_path, capsys
    ):
        from repro.obs import validate_run_record

        serial = self.run_stats(tmp_path, "serial.json", jobs=1)
        merged = self.run_stats(tmp_path, "parallel.json", jobs=2)
        assert validate_run_record(merged) == []
        assert merged["counters"] == serial["counters"]
        assert merged["results"] == serial["results"] == {
            "ran": 2,
            "failed": [],
        }
        # Same spans executed, whatever the process layout.
        assert {
            name: t["count"] for name, t in merged["timings"].items()
        } == {name: t["count"] for name, t in serial["timings"].items()}

    @pytest.mark.parametrize(
        "ids", [["F1F2"], ["F1F2", "T6"]], ids=["one", "two"]
    )
    def test_jobs_record_counts_equal_serial(self, tmp_path, capsys, ids):
        # A single experiment runs in-process even under --jobs 2; its
        # counters and spans must still be recorded exactly once.
        serial = self.run_stats(tmp_path, "serial.json", jobs=1, ids=ids)
        merged = self.run_stats(tmp_path, "parallel.json", jobs=2, ids=ids)
        assert merged["counters"] == serial["counters"]
        assert {
            name: t["count"] for name, t in merged["timings"].items()
        } == {name: t["count"] for name, t in serial["timings"].items()}

    def test_parallel_trace_prints_merged_report(self, tmp_path, capsys):
        assert main(self.CHEAP + ["--jobs", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "instrumentation" in out
        assert "experiment.T6" in out


class TestEventLogFlag:
    CHEAP = ["F1F2", "T6"]

    def test_serial_events_replay_experiment_spans(self, tmp_path, capsys):
        from repro.obs.events import read_events, replay

        log_file = tmp_path / "run.events.jsonl"
        assert main(["T6", "--events-out", str(log_file)]) == 0
        assert "event log written" in capsys.readouterr().out
        roots = replay(read_events(log_file))
        assert any(r.name == "experiment.T6" for r in roots)

    def test_parallel_events_cover_every_worker(self, tmp_path, capsys):
        from repro.obs.events import read_events, replay

        log_file = tmp_path / "merged.events.jsonl"
        assert (
            main(self.CHEAP + ["--jobs", "2", "--events-out", str(log_file)])
            == 0
        )
        events = read_events(log_file)
        headers = [e for e in events if e["type"] == "run"]
        assert [h["worker"] for h in headers] == [0, 1]
        roots = replay(events)
        assert {r.name for r in roots} == {
            "experiment.F1F2",
            "experiment.T6",
        }

    @pytest.mark.parametrize(
        "flags",
        [["--checkpoint", "ck.jsonl"], ["--retries", "1"]],
        ids=["checkpoint", "retries"],
    )
    def test_reliability_events_replay_experiment_spans(
        self, tmp_path, capsys, flags
    ):
        from repro.obs.events import read_events, replay

        log_file = tmp_path / "run.events.jsonl"
        flags = [str(tmp_path / f) if f.endswith(".jsonl") else f for f in flags]
        assert main(["T6", *flags, "--events-out", str(log_file)]) == 0
        roots = replay(read_events(log_file))
        assert [r.name for r in roots] == ["experiment.T6"]
        assert roots[0].children  # the worker's inner spans came back

    def test_resumed_events_replay_journalled_spans(self, tmp_path, capsys):
        from repro.obs.events import read_events, replay

        ledger = str(tmp_path / "ck.jsonl")
        first, resumed = tmp_path / "first.jsonl", tmp_path / "resumed.jsonl"
        assert main(["T6", "--checkpoint", ledger, "--events-out", str(first)]) == 0
        assert (
            main(["T6", "--checkpoint", ledger, "--resume",
                  "--events-out", str(resumed)])
            == 0
        )
        assert read_events(resumed) == read_events(first)
        assert [r.name for r in replay(read_events(resumed))] == ["experiment.T6"]

    def test_failure_notes_join_the_worker_logs(self, tmp_path, capsys):
        from repro.obs.events import read_events, replay

        log_file = tmp_path / "run.events.jsonl"
        code = main(
            self.CHEAP
            + ["--jobs", "2", "--events-out", str(log_file),
               "--inject-fault", "site=*;action=raise;scope=*T6*"]
        )
        assert code == 1
        events = read_events(log_file)
        notes = [e for e in events if e["type"] == "note"]
        assert [(n["name"], n["data"]["cell"]) for n in notes] == [
            ("reliability.failure", "T6")
        ]
        assert [r.name for r in replay(events)] == ["experiment.F1F2"]

    def test_solve_events(self, deployment, tmp_path, capsys):
        from repro.obs.events import read_events, replay

        log_file = tmp_path / "solve.events.jsonl"
        assert (
            main(["solve", deployment, "--events-out", str(log_file)]) == 0
        )
        # The log also covers spans before the solver (the UDG build),
        # so find the solve root among possibly several.
        roots = replay(read_events(log_file))
        (solve,) = [r for r in roots if r.name == "solve.total"]
        child_names = {c.name for c in solve.children}
        assert "greedy.phase1" in child_names


class TestMemAndProfileFlags:
    def test_solve_mem_trace_in_record(self, deployment, tmp_path, capsys):
        rec_file = tmp_path / "rec.json"
        assert (
            main(
                [
                    "solve",
                    deployment,
                    "--mem-trace",
                    "--stats-out",
                    str(rec_file),
                ]
            )
            == 0
        )
        counters = json.loads(rec_file.read_text())["counters"]
        assert counters["mem.run.peak_bytes"] > 0
        assert counters["mem.solve.total.peak_bytes"] > 0

    @pytest.mark.parametrize(
        "flags", [[], ["--jobs", "2"], ["--retries", "1"]],
        ids=["inline", "jobs", "retries"],
    )
    def test_experiments_mem_trace_in_record(self, tmp_path, capsys, flags):
        rec_file = tmp_path / "rec.json"
        argv = ["F1F2", *flags, "--mem-trace", "--stats-out", str(rec_file)]
        assert main(argv) == 0
        counters = json.loads(rec_file.read_text())["counters"]
        assert counters["mem.run.peak_bytes"] > 0
        assert counters["mem.experiment.F1F2.peak_bytes"] > 0

    def test_solve_profile_out(self, deployment, tmp_path, capsys):
        import pstats

        out = tmp_path / "solve.pstats"
        assert main(["solve", deployment, "--profile-out", str(out)]) == 0
        assert "profile written" in capsys.readouterr().out
        pstats.Stats(str(out))  # loadable

    def test_experiments_profile_out(self, tmp_path, capsys):
        import pstats

        out = tmp_path / "t6.pstats"
        assert main(["T6", "--profile-out", str(out)]) == 0
        pstats.Stats(str(out))
