"""End-to-end tests for the solve daemon: cache correctness (the
bit-identity contract), single-flight coalescing, CellError
propagation, protocol errors, and drain-time obs emission."""

import json
import threading

import pytest

from repro.experiments.instances import default_side
from repro.experiments.parallel import SweepCell, solve_cell
from repro.obs import OBS
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
    validate_response,
)


def canonical(result: dict) -> str:
    """The bit-identity rendering: canonical JSON of the result object."""
    return json.dumps(result, sort_keys=True)


@pytest.fixture
def server():
    with ServerThread(ServeConfig()) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServeClient(server.address, timeout=30) as c:
        yield c


class TestCacheCorrectness:
    def test_repeat_request_bit_identical_to_cold_solve(self, server, client):
        cold = client.solve(n=24, seed=1)
        warm = client.solve(n=24, seed=1)
        assert validate_response(cold) == []
        assert validate_response(warm) == []
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert canonical(warm["result"]) == canonical(cold["result"])
        assert warm["fingerprint"] == cold["fingerprint"]
        # ... and both are bit-identical to solving the cell directly
        # through the sweep machinery, counters included.
        direct = solve_cell(
            SweepCell(n=24, side=default_side(24), seed=1), algorithm="greedy"
        )
        assert canonical(cold["result"]) == canonical(direct)
        assert server.server.stats.cells_solved == 1

    def test_changed_spec_changes_fingerprint_and_resolves(self, client):
        first = client.solve(n=24, seed=1)
        for kwargs in (
            {"n": 25, "seed": 1},
            {"n": 24, "seed": 2},
            {"n": 24, "seed": 1, "side": 4.4},
            {"n": 24, "seed": 1, "algorithm": "waf"},
            {"n": 24, "seed": 1, "kernel": "bitset"},
        ):
            other = client.solve(**kwargs)
            assert other["status"] == "ok"
            assert other["cached"] is False, kwargs
            assert other["fingerprint"] != first["fingerprint"], kwargs

    def test_concurrent_identical_requests_solve_once(self, server):
        responses = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def go():
            with ServeClient(server.address, timeout=30) as c:
                barrier.wait()
                response = c.solve(n=30, seed=5)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=go) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(responses) == 6
        assert all(r["status"] == "ok" for r in responses)
        # single-flight: one solve serves everyone, whether a follower
        # coalesced onto the in-flight future or hit the cache after.
        assert server.server.stats.cells_solved == 1
        renderings = {canonical(r["result"]) for r in responses}
        assert len(renderings) == 1

    def test_eviction_forces_resolve(self):
        with ServerThread(ServeConfig(cache_size=1)) as small:
            with ServeClient(small.address, timeout=30) as c:
                a1 = c.solve(n=20, seed=1)
                c.solve(n=20, seed=2)  # evicts seed=1
                a2 = c.solve(n=20, seed=1)  # re-solves, evicts seed=2
            assert a1["cached"] is False and a2["cached"] is False
            assert small.server.stats.cells_solved == 3
            assert small.server.cache.evictions == 2
            assert canonical(a1["result"]) == canonical(a2["result"])

    def test_cache_false_bypasses_cache(self, server, client):
        r1 = client.solve(n=20, seed=3, cache=False)
        r2 = client.solve(n=20, seed=3, cache=False)
        assert r1["cached"] is False and r2["cached"] is False
        assert server.server.stats.cells_solved == 2
        assert canonical(r1["result"]) == canonical(r2["result"])


class TestSolvePaths:
    def test_inline_edges_instance(self, client):
        response = client.solve(
            edges=[[0, 1], [1, 2], [2, 3], [3, 0]], algorithm="waf"
        )
        assert response["status"] == "ok"
        result = response["result"]
        assert result["nodes"] == 4 and result["edges"] == 4
        assert result["cds_size"] >= 2
        assert result["counters"]

    def test_edge_order_hits_same_cache_entry(self, client):
        a = client.solve(edges=[[0, 1], [1, 2]])
        b = client.solve(edges=[[2, 1], [1, 0]])
        assert a["cached"] is False and b["cached"] is True
        assert canonical(a["result"]) == canonical(b["result"])

    def test_algorithm_choice_respected(self, client):
        response = client.solve(n=24, seed=1, algorithm="guha-khuller")
        assert response["result"]["algorithm"].startswith("guha-khuller")


class TestErrorPaths:
    def test_disconnected_edges_structured_error(self, client):
        response = client.solve(edges=[[0, 1], [2, 3]])
        assert response["status"] == "error"
        assert validate_response(response) == []
        assert response["error"]["type"] == "ValueError"
        assert "disconnected" in response["error"]["message"]
        # the CellError context came along: which item, at which index
        assert "index" in response["error"]
        assert "edges" in response["error"]["item"]
        # regression: the connection survives the failure
        assert client.ping()["status"] == "ok"

    def test_cellerror_in_batch_spares_batchmates(self, server):
        # One bad request (disconnected instance) sharing a batching
        # window with good ones: parallel_map's fail-fast CellError
        # must become a structured error for the bad request only.
        with ServerThread(ServeConfig(batch_window=0.4)) as thread:
            responses = {}
            lock = threading.Lock()
            barrier = threading.Barrier(3)

            def go(name, **kwargs):
                with ServeClient(thread.address, timeout=30) as c:
                    barrier.wait()
                    response = c.solve(**kwargs)
                with lock:
                    responses[name] = response

            threads = [
                threading.Thread(
                    target=go, args=("bad",),
                    kwargs={"edges": [[0, 1], [2, 3]]},
                ),
                threading.Thread(
                    target=go, args=("good-a",), kwargs={"n": 20, "seed": 1}
                ),
                threading.Thread(
                    target=go, args=("good-b",), kwargs={"n": 20, "seed": 2}
                ),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert responses["bad"]["status"] == "error"
            assert responses["bad"]["error"]["type"] == "ValueError"
            assert responses["good-a"]["status"] == "ok"
            assert responses["good-b"]["status"] == "ok"
            assert thread.server.stats.batch_fallbacks >= 1

    def test_unknown_algorithm_is_request_error(self, client):
        response = client.solve(n=20, seed=1, algorithm="magic")
        assert response["status"] == "error"
        assert response["error"]["type"] == "ValueError"

    def test_kernel_on_unkernelized_algorithm(self, client):
        response = client.solve(
            edges=[[0, 1], [1, 2]], algorithm="steiner", kernel="bitset"
        )
        assert response["status"] == "error"
        assert "kernel" in response["error"]["message"]

    def test_invalid_json_keeps_connection_open(self, client):
        client._file.write(b"{not json\n")
        client._file.flush()
        response = json.loads(client._file.readline())
        assert response["status"] == "error"
        assert response["id"] is None
        assert response["error"]["type"] == "ProtocolError"
        assert validate_response(response) == []
        assert client.ping()["status"] == "ok"

    def test_schema_violation_reported_with_id(self, client):
        response = client.request(
            {"schema": "repro.serve/request/v1", "id": "bad-1", "op": "solve",
             "instance": {"kind": "spec", "n": 0, "seed": 0}}
        )
        assert response["status"] == "error"
        assert response["id"] == "bad-1"
        assert "instance.n" in response["error"]["message"]


class TestControlAndStats:
    def test_ping_and_stats(self, server, client):
        assert client.ping()["status"] == "ok"
        client.solve(n=20, seed=1)
        client.solve(n=20, seed=1)
        stats = client.stats()["stats"]
        assert stats["requests"] >= 3
        assert stats["cells_solved"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["latency"]["count"] == 2
        assert stats["latency"]["p50"] <= stats["latency"]["p99"]

    def test_latency_count_covers_every_request(self):
        # stats.latency and the serve.request timer both render the
        # wall histogram: no sample cap freezes either count.
        from repro.serve.cache import ResultCache
        from repro.serve.server import ServerStats

        stats = ServerStats()
        for _ in range(100_005):
            stats.record_latency(0.001)
        stats.record_batch(3, 0.01, fallback=False)
        cache = ResultCache(4)
        latency = stats.snapshot(cache)["latency"]
        assert set(latency) == {"count", "mean", "p50", "p99", "max"}
        assert latency["count"] == 100_005
        assert latency["mean"] * latency["count"] == pytest.approx(100.005)
        timers = stats.obs_state(cache)["timers"]
        assert timers["serve.request"] == stats.wall.state()
        assert timers["serve.request"]["count"] == 100_005
        # one serve.batch.solve sample per batch, one solve sample per cell
        assert timers["serve.batch.solve"]["count"] == 1
        assert stats.solve.count == 3

    def test_shutdown_drains(self):
        thread = ServerThread(ServeConfig()).start()
        with ServeClient(thread.address, timeout=30) as c:
            c.solve(n=20, seed=1)
            ack = c.shutdown()
            assert ack["status"] == "ok" and ack["draining"] is True
        thread._thread.join(10)
        assert not thread._thread.is_alive()

    def test_emit_obs_materialises_counters(self):
        with ServerThread(ServeConfig()) as thread:
            with ServeClient(thread.address, timeout=30) as c:
                c.solve(n=20, seed=1)
                c.solve(n=20, seed=1)
        with OBS.capture() as reg:
            thread.server.emit_obs()
            counters = reg.counters()
        assert counters["serve.requests"] == 2
        assert counters["serve.cells.solved"] == 1
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.requests.solve"] == 2
        # merged solver counters ride along with the serve.* ones
        assert any(name.startswith("greedy.") for name in counters)
        timers = reg.timers()
        assert timers["serve.request"].count == 2


class TestLiveTelemetry:
    """The live metrics fold: stats must answer with histogram
    percentiles *while* requests are in flight — no drain required —
    and the exporter-facing registry must carry the same numbers."""

    def test_stats_mid_flight_reports_histograms(self):
        # A long batch window holds the second request in the batcher;
        # a second connection queries stats while it is queued.
        with ServerThread(ServeConfig(batch_window=0.5)) as thread:
            with ServeClient(thread.address, timeout=30) as warm:
                warm.solve(n=20, seed=1)  # one completed sample

            done = threading.Event()
            inflight_response = {}

            def hold():
                with ServeClient(thread.address, timeout=30) as c:
                    inflight_response["r"] = c.solve(n=24, seed=9)
                done.set()

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                with ServeClient(thread.address, timeout=30) as probe:
                    seen_inflight = False
                    for _ in range(200):
                        stats = probe.stats()["stats"]
                        if stats["inflight"] >= 1 and not done.is_set():
                            seen_inflight = True
                            break
                    assert seen_inflight, "never observed the held request"
                    # mid-flight, the completed sample is already folded
                    wall = stats["histograms"]["serve.latency.wall"]
                    assert wall["count"] >= 1
                    assert wall["p50"] <= wall["p99"] <= wall["max"]
                    assert "serve.latency.queue" in stats["histograms"]
                    assert "serve.latency.solve" in stats["histograms"]
            finally:
                holder.join(30)
            assert inflight_response["r"]["status"] == "ok"

    def test_metrics_registry_matches_drain_record(self, server, client):
        client.solve(n=20, seed=1)
        client.solve(n=20, seed=1)
        live = server.server.metrics_registry()
        assert live.counters()["serve.requests"] == 2
        assert live.counters()["serve.cache.hits"] == 1
        assert live.histogram("serve.latency.wall").count == 2
        # drain-time emission folds the identical state
        with OBS.capture() as reg:
            server.server.emit_obs()
        assert reg.counters() == live.counters()
        assert (
            reg.histogram("serve.latency.wall").state()
            == live.histogram("serve.latency.wall").state()
        )

    def test_queue_wait_histogram_fills_under_batching(self):
        with ServerThread(ServeConfig(batch_window=0.1)) as thread:
            with ServeClient(thread.address, timeout=30) as c:
                c.solve(n=20, seed=1)
                c.solve(n=20, seed=2)
            queue = thread.server.stats.queue_wait
            solve = thread.server.stats.solve
        assert queue.count == 2  # one sample per enqueued request
        assert solve.count == 2
        # queued at least as long as the batch window makes them wait
        assert queue.max >= 0.0


class TestTraceCorrelation:
    def test_traces_unique_and_increasing(self, client):
        responses = [
            client.solve(n=20, seed=1),
            client.solve(n=20, seed=1),  # cache hit still gets a trace
            client.solve(n=20, seed=2),
        ]
        traces = [r["trace"] for r in responses]
        assert all(isinstance(t, int) and t >= 1 for t in traces)
        assert traces == sorted(traces)
        assert len(set(traces)) == 3
        assert validate_response(responses[0]) == []

    def test_error_response_carries_trace(self, client):
        response = client.solve(edges=[[0, 1], [2, 3]])
        assert response["status"] == "error"
        assert isinstance(response["trace"], int)
        assert validate_response(response) == []

    def test_batch_note_lists_member_traces(self, server):
        notes = []

        class Recorder:
            def begin(self, name):
                return None

            def end(self, name, token, seconds):
                pass

            def note(self, name, data):
                notes.append((name, data))

        recorder = Recorder()
        OBS.enable()
        OBS.add_hook(recorder)
        try:
            with ServeClient(server.address, timeout=30) as c:
                first = c.solve(n=20, seed=1)
                second = c.solve(n=20, seed=1)
        finally:
            OBS.remove_hook(recorder)
            OBS.disable()
        batches = [d for n, d in notes if n == "serve.batch"]
        requests = [d for n, d in notes if n == "serve.request"]
        assert len(batches) == 1
        assert batches[0]["traces"] == [first["trace"]]
        assert batches[0]["cells"] == 1
        # request notes correlate back: the solved one names its batch,
        # the cache hit names none.
        by_trace = {d["trace"]: d for d in requests}
        assert by_trace[first["trace"]]["batch_seq"] == batches[0]["seq"]
        assert by_trace[second["trace"]]["cached"] is True

    def test_trace_rejected_when_malformed(self, client):
        response = client.solve(n=20, seed=1)
        assert validate_response(response) == []
        response["trace"] = 0
        assert any("trace" in v for v in validate_response(response))
        response["trace"] = True
        assert any("trace" in v for v in validate_response(response))


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        with ServerThread(ServeConfig(socket_path=path)) as thread:
            assert thread.address == path
            with ServeClient(path, timeout=30) as c:
                response = c.solve(n=20, seed=1)
                assert response["status"] == "ok"
