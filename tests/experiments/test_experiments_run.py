"""Smoke-run every experiment with quick parameters — each must PASS.

These are the reproduction's acceptance tests: an experiment failing
means a paper claim did not hold on our implementation.
"""

from repro.experiments import get_experiment


class TestExperimentsPass:
    def test_t3_star_packing(self):
        result = get_experiment("T3")(max_n=4, seeds_per_n=2, grid_step=0.3)
        assert result.passed

    def test_t6_neighborhood_packing(self):
        result = get_experiment("T6")(
            chain_sizes=(3, 4, 6), random_n=6, random_seeds=2, grid_step=0.3
        )
        assert result.passed

    def test_c7_alpha_gamma(self):
        result = get_experiment("C7")(sizes=(10, 14), seeds=3)
        assert result.passed

    def test_t8_waf_ratio(self):
        result = get_experiment("T8")(sizes=(12, 16), seeds=3)
        assert result.passed

    def test_t10_greedy_ratio(self):
        result = get_experiment("T10")(sizes=(12, 16), seeds=3)
        assert result.passed

    def test_f1f2_tightness(self):
        result = get_experiment("F1F2")(chain_sizes=(3, 4, 6))
        assert result.passed

    def test_lemmas(self):
        result = get_experiment("LEM")(trials=4, step=0.35)
        assert result.passed

    def test_cmp_comparison(self):
        result = get_experiment("CMP")(n=20, seeds=2)
        assert result.passed

    def test_dist_messages(self):
        result = get_experiment("DIST")(sizes=(10, 16))
        assert result.passed

    def test_s5_funke(self):
        result = get_experiment("S5")(chain_sizes=(3, 5), resolution=180)
        assert result.passed

    def test_results_render(self):
        result = get_experiment("F1F2")(chain_sizes=(3,))
        text = result.render()
        assert "PASS" in text
        assert "Figure" in text


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "T8" in out and "CMP" in out

    def test_run_one(self, capsys):
        from repro.cli import main

        assert main(["F1F2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["NOPE"]) == 2
        assert capsys.readouterr().err.startswith("unknown experiment 'NOPE'")

    def test_removed_bench_mode_is_a_clean_usage_error(self, capsys):
        from repro.cli import main

        assert main(["bench", "compare", "a.json", "b.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown experiment 'bench'")
        assert err.count("\n") == 1

    def test_raising_experiment_is_a_structured_failure(
        self, monkeypatch, capsys
    ):
        # A plain --jobs 1 run goes through the reliability runner's
        # inline engine: the exception becomes a failure report and
        # exit 1, and the healthy experiment still prints its table.
        from repro.cli import main
        from repro.experiments import harness

        monkeypatch.setitem(harness._REGISTRY, "BOOM", ("raises", _boom))
        assert main(["F1F2", "BOOM"]) == 1
        captured = capsys.readouterr()
        assert "[F1F2]" in captured.out
        assert "1 of 2 cell(s) failed" in captured.err
        assert "RuntimeError" in captured.err
        assert "Traceback" not in captured.err


def _boom():
    raise RuntimeError("experiment blew up")


_boom.experiment_id = "BOOM"
