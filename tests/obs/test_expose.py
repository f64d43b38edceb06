"""Tests for the live-telemetry export layer: Prometheus exposition
rendering and validation, the metrics-snapshot JSONL stream, the
periodic snapshotter, the HTTP exporter, and the ``obs tail`` view."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import Registry
from repro.obs.expose import (
    EXPOSITION_VERSION,
    SNAPSHOT_SCHEMA_ID,
    MetricsExporter,
    PeriodicSnapshotter,
    SnapshotStream,
    metric_name,
    parse_snapshots,
    render_exposition,
    snapshot_state,
    validate_exposition,
    validate_snapshot,
)


def busy_registry() -> Registry:
    reg = Registry(enabled=True)
    reg.incr("serve.requests", 5)
    reg.incr("serve.cache.hits", 2)
    with reg.time("serve.request"):
        pass
    reg.observe("serve.latency.wall", 0.002)
    reg.observe("serve.latency.wall", 0.004)
    reg.observe("serve.latency.wall", 1.5)
    return reg


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("serve.requests", "_total") == "serve_requests_total"

    def test_illegal_chars_sanitised(self):
        assert metric_name("a-b c%d") == "a_b_c_d"

    def test_leading_digit_guarded(self):
        assert metric_name("9lives") == "_9lives"


class TestRenderExposition:
    def test_counters_timers_histograms_render(self):
        text = render_exposition(busy_registry())
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 5" in text
        assert "# TYPE serve_request_seconds summary" in text
        assert "serve_request_seconds_count 1" in text
        assert "# TYPE serve_latency_wall histogram" in text
        assert 'serve_latency_wall_bucket{le="+Inf"} 3' in text
        assert "serve_latency_wall_count 3" in text

    def test_output_is_deterministic(self):
        reg = busy_registry()
        assert render_exposition(reg) == render_exposition(reg)

    def test_empty_registry_renders_empty(self):
        assert render_exposition(Registry()) == ""

    def test_rendered_text_validates(self):
        assert validate_exposition(render_exposition(busy_registry())) == []

    def test_bucket_series_cumulative(self):
        text = render_exposition(busy_registry())
        cums = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("serve_latency_wall_bucket")
        ]
        assert cums == sorted(cums)
        assert cums[-1] == 3


class TestValidateExposition:
    def test_malformed_sample_flagged(self):
        assert validate_exposition("not a metric line at all!\n")

    def test_malformed_comment_flagged(self):
        errors = validate_exposition("# HELLO there\n")
        assert any("comment" in e for e in errors)

    def test_decreasing_cumulative_flagged(self):
        text = (
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="0.2"} 3\n'
        )
        assert any("decreases" in e for e in validate_exposition(text))

    def test_nonincreasing_le_flagged(self):
        text = (
            'h_bucket{le="0.2"} 1\n'
            'h_bucket{le="0.1"} 2\n'
        )
        assert any("increase" in e for e in validate_exposition(text))

    def test_blank_lines_ignored(self):
        assert validate_exposition("\n\nserve_requests_total 1\n") == []


class TestSnapshotStream:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        with SnapshotStream(path, source="test") as stream:
            stream.write(busy_registry())
            stream.write(busy_registry(), extra={"phase": "warm"})
        snaps = parse_snapshots(path.read_text())
        assert [s["seq"] for s in snaps] == [0, 1]
        assert all(s["schema"] == SNAPSHOT_SCHEMA_ID for s in snaps)
        assert all(s["source"] == "test" for s in snaps)
        assert snaps[0]["counters"]["serve.requests"] == 5
        assert snaps[0]["histograms"]["serve.latency.wall"]["count"] == 3
        assert snaps[1]["extra"] == {"phase": "warm"}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        with SnapshotStream(path, source="test") as stream:
            stream.write(busy_registry())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs/metr')  # killed mid-write
        assert len(parse_snapshots(path.read_text())) == 1

    def test_malformed_middle_line_raises(self):
        good = json.dumps(
            snapshot_state(Registry(), seq=0, source="t", now=1.0)
        )
        with pytest.raises(ValueError, match="line 2 is not valid JSON"):
            parse_snapshots(f"{good}\n{{broken\n{good}\n")

    def test_schema_violation_raises(self):
        bad = json.dumps({"schema": "something/else", "seq": 0})
        good = json.dumps(
            snapshot_state(Registry(), seq=1, source="t", now=1.0)
        )
        with pytest.raises(ValueError, match="schema"):
            parse_snapshots(f"{bad}\n{good}\n")

    def test_validate_snapshot_checks_fields(self):
        snap = snapshot_state(busy_registry(), seq=3, source="t", now=2.0)
        assert validate_snapshot(snap) == []
        assert validate_snapshot({"schema": SNAPSHOT_SCHEMA_ID})
        snap["counters"]["bad"] = float("nan")
        assert any("finite" in e for e in validate_snapshot(snap))


class TestPeriodicSnapshotter:
    def test_writes_lines_and_final_snapshot_on_stop(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        reg = busy_registry()
        stream = SnapshotStream(path, source="test")
        snapshotter = PeriodicSnapshotter(stream, lambda: reg, interval=0.02)
        snapshotter.start()
        ticked = threading.Event()
        deadline = threading.Event()
        for _ in range(200):
            if stream.seq >= 2:
                ticked.set()
                break
            deadline.wait(0.01)
        assert ticked.is_set(), "snapshotter never ticked"
        reg.incr("late.counter", 7)
        snapshotter.stop()
        stream.close()
        snaps = parse_snapshots(path.read_text())
        assert len(snaps) >= 3
        # the final line reflects state at stop(), not the last tick
        assert snaps[-1]["counters"]["late.counter"] == 7
        assert [s["seq"] for s in snaps] == list(range(len(snaps)))

    def test_bad_interval_rejected(self, tmp_path):
        stream = SnapshotStream(tmp_path / "s.jsonl")
        for bad in (0, float("nan"), float("inf"), 1e300):
            with pytest.raises(ValueError, match="interval"):
                PeriodicSnapshotter(stream, Registry, interval=bad)


class TestMetricsExporter:
    def test_scrape_round_trip(self):
        reg = busy_registry()
        with MetricsExporter(lambda: render_exposition(reg)) as exporter:
            host, port = exporter.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert EXPOSITION_VERSION in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
        assert validate_exposition(body) == []
        assert "serve_requests_total 5" in body

    def test_scrape_sees_live_updates(self):
        reg = Registry()
        with MetricsExporter(lambda: render_exposition(reg)) as exporter:
            host, port = exporter.address

            def scrape():
                with urllib.request.urlopen(
                    f"http://{host}:{port}/", timeout=10
                ) as response:
                    return response.read().decode("utf-8")

            assert scrape() == ""
            reg.incr("live.hits", 3)
            assert "live_hits_total 3" in scrape()

    def test_unknown_path_is_404(self):
        with MetricsExporter(lambda: "") as exporter:
            host, port = exporter.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/other", timeout=10
                )
            assert excinfo.value.code == 404


class TestTail:
    def test_once_renders_snapshot_stream(self, tmp_path, capsys):
        from repro.obs.tail import main

        path = tmp_path / "snaps.jsonl"
        with SnapshotStream(path, source="test") as stream:
            stream.write(busy_registry())
        assert main([str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "serve.requests" in out
        assert "serve.latency.wall" in out
        assert "p99" in out

    def test_once_renders_exposition(self, tmp_path, capsys):
        from repro.obs.tail import main

        path = tmp_path / "metrics.prom"
        path.write_text(render_exposition(busy_registry()))
        assert main([str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "serve_requests_total" in out

    def test_bad_interval_rejected(self, tmp_path):
        from repro.obs.tail import main

        path = tmp_path / "x.jsonl"
        path.write_text("")
        for bad in ("0", "nan", "inf", "1e300"):
            assert main([str(path), "--interval", bad, "--once"]) == 2


class TestValidateCLISnapshots:
    def test_snapshot_stream_validates(self, tmp_path, capsys):
        from repro.obs.validate import main

        path = tmp_path / "snaps.jsonl"
        with SnapshotStream(path, source="test") as stream:
            stream.write(busy_registry())
            stream.write(busy_registry())
        assert main([str(path)]) == 0
        assert SNAPSHOT_SCHEMA_ID in capsys.readouterr().out

    def test_bad_snapshot_line_fails(self, tmp_path, capsys):
        from repro.obs.validate import main

        path = tmp_path / "snaps.jsonl"
        good = json.dumps(
            snapshot_state(Registry(), seq=0, source="t", now=1.0)
        )
        path.write_text(good + "\n" + '{"schema": "nope"}' + "\n" + good + "\n")
        assert main([str(path)]) == 1
        assert "schema" in capsys.readouterr().err
