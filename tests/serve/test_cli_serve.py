"""End-to-end tests for the ``serve`` / ``serve-client`` CLI modes,
driven over a Unix socket with the daemon on a background thread."""

import json
import os
import threading
import time

import pytest

from repro.cli import main


@pytest.fixture
def daemon(tmp_path, capsys):
    """A ``python -m repro serve`` daemon on a tmp Unix socket.

    Yields once the daemon has printed its ``serving on`` banner, with
    the banner drained from ``capsys``: the socket file appears before
    the banner does, and a banner left in the buffer would land in the
    test's captured stdout.
    """
    path = str(tmp_path / "serve.sock")
    thread = threading.Thread(
        target=main, args=(["serve", "--socket", path],), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 15
    printed = ""
    while not (os.path.exists(path) and "serving on" in printed):
        assert time.monotonic() < deadline, "daemon did not print its banner"
        time.sleep(0.02)
        printed += capsys.readouterr().out
    yield path
    main(["serve-client", "--connect", path, "--shutdown"])
    thread.join(15)
    assert not thread.is_alive()


def _client(daemon, *argv):
    return main(["serve-client", "--connect", daemon, *argv])


class TestServeClientCli:
    def test_ping(self, daemon, capsys):
        assert _client(daemon, "--ping") == 0
        assert "ping: ok" in capsys.readouterr().out

    def test_solve_then_cached(self, daemon, capsys):
        assert _client(daemon, "--n", "20", "--seed", "1") == 0
        first = capsys.readouterr().out
        assert "cached=False" in first and "|CDS|=" in first
        assert _client(daemon, "--n", "20", "--seed", "1") == 0
        second = capsys.readouterr().out
        assert "cached=True" in second

    def test_json_output_is_schema_valid(self, daemon, capsys):
        from repro.serve import validate_response

        assert _client(daemon, "--n", "20", "--seed", "2", "--json") == 0
        response = json.loads(capsys.readouterr().out)
        assert validate_response(response) == []

    def test_stats_prints_json(self, daemon, capsys):
        assert _client(daemon, "--stats") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert "cache" in payload["stats"]

    def test_loadgen_writes_report(self, daemon, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert _client(
            daemon, "--loadgen", "--ns", "20", "--seeds", "0:3",
            "--requests", "12", "--concurrency", "2", "--out", str(out),
        ) == 0
        assert "req/s" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.serve/load-report/v1"
        assert report["ok"] is True and report["requests"] == 12

    def test_no_op_selected_is_usage_error(self, daemon, capsys):
        assert _client(daemon) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_unreachable_daemon(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sock")
        assert main(["serve-client", "--connect", missing, "--ping"]) == 1
        assert "cannot reach daemon" in capsys.readouterr().err


class TestServeCli:
    def test_drain_summary_printed(self, tmp_path, capsys):
        path = str(tmp_path / "s.sock")
        thread = threading.Thread(
            target=main, args=(["serve", "--socket", path],), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 15
        while not os.path.exists(path):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert main(["serve-client", "--connect", path, "--n", "20"]) == 0
        assert main(["serve-client", "--connect", path, "--shutdown"]) == 0
        thread.join(15)
        out = capsys.readouterr().out
        assert "serving on" in out
        assert "drained: " in out and "1 cell(s) solved" in out

    def test_bad_config_rejected(self, capsys):
        for bad in ("-1", "nan", "inf", "1e300"):
            assert main(["serve", "--batch-window", bad]) == 2
            assert "batch_window" in capsys.readouterr().err

    def test_bad_metrics_interval_rejected(self, capsys):
        for bad in ("0", "nan", "inf", "1e300"):
            assert main(["serve", "--metrics-interval", bad]) == 2
            assert "metrics-interval" in capsys.readouterr().err


class TestServeTelemetryCli:
    def test_exporter_and_snapshots_end_to_end(self, tmp_path, capsys):
        """The acceptance path: scrape a live exposition mid-run, then
        check the drained stream's final counters are bit-identical to
        the --stats-out run record."""
        import re
        import urllib.request

        from repro.obs.expose import parse_snapshots, validate_exposition

        path = str(tmp_path / "s.sock")
        snaps_path = tmp_path / "metrics.jsonl"
        record_path = tmp_path / "record.json"
        thread = threading.Thread(
            target=main,
            args=([
                "serve", "--socket", path,
                "--metrics-port", "0",
                "--metrics-out", str(snaps_path),
                "--metrics-interval", "0.05",
                "--stats-out", str(record_path),
            ],),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 15
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "daemon did not bind"
            time.sleep(0.02)
        url = None
        buffer = ""
        while url is None:
            assert time.monotonic() < deadline, "exporter URL never printed"
            buffer += capsys.readouterr().out
            match = re.search(r"http://[\d.]+:\d+/metrics", buffer)
            if match:
                url = match.group(0)
            else:
                time.sleep(0.02)

        assert main(["serve-client", "--connect", path, "--n", "20"]) == 0
        assert main(["serve-client", "--connect", path, "--n", "20"]) == 0
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode("utf-8")
        assert validate_exposition(body) == []
        assert "serve_requests_total" in body
        assert "serve_latency_wall_bucket" in body

        assert main(["serve-client", "--connect", path, "--shutdown"]) == 0
        thread.join(15)
        assert not thread.is_alive()
        record = json.loads(record_path.read_text())
        snaps = parse_snapshots(snaps_path.read_text())
        # the final (post-drain) snapshot and the run record describe
        # the same lifetime: counters and histograms bit-identical.
        assert snaps[-1]["counters"] == record["counters"]
        assert snaps[-1]["histograms"] == record["histograms"]
        assert record["counters"]["serve.requests"] >= 2
