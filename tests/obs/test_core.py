"""Unit tests for the instrumentation primitives."""

import pytest

from repro.obs import OBS, Registry, trace, traced
from repro.obs.metrics import LAYOUT_ID


@pytest.fixture(autouse=True)
def _clean_default_registry():
    """Leave the shared registry how we found it: disabled and empty."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


class TestRegistry:
    def test_disabled_by_default(self):
        assert not Registry().enabled

    def test_counter_increments(self):
        reg = Registry(enabled=True)
        reg.incr("a")
        reg.incr("a", 4)
        assert reg.counters() == {"a": 5}

    def test_counters_sorted_by_name(self):
        reg = Registry(enabled=True)
        reg.incr("z")
        reg.incr("a")
        assert list(reg.counters()) == ["a", "z"]

    def test_timer_records_spans(self):
        reg = Registry(enabled=True)
        with reg.time("t"):
            pass
        with reg.time("t"):
            pass
        timer = reg.timer("t")
        assert timer.count == 2
        assert timer.sum >= 0.0
        assert timer.mean == pytest.approx(timer.sum / 2)

    def test_spans_stay_out_of_sample_histograms(self):
        reg = Registry(enabled=True)
        with reg.time("t"):
            pass
        assert reg.histograms() == {}
        assert "histograms" not in reg.snapshot()
        assert "histograms" not in reg.export_state()

    def test_time_is_noop_when_disabled(self):
        reg = Registry()
        span = reg.time("t")
        assert not span.active
        with span:
            pass
        assert reg.timings() == {}

    def test_reset_clears_but_keeps_enabled(self):
        reg = Registry(enabled=True)
        reg.incr("a")
        reg.reset()
        assert reg.enabled
        assert reg.snapshot() == {"counters": {}, "timings": {}}

    def test_capture_restores_prior_state(self):
        reg = Registry()
        reg.incr("stale")
        with reg.capture() as inner:
            assert inner is reg
            assert reg.enabled
            assert reg.counters() == {}  # reset dropped the stale counter
            reg.incr("fresh")
        assert not reg.enabled
        assert reg.counters() == {"fresh": 1}

    def test_capture_without_reset(self):
        reg = Registry()
        reg.incr("kept")
        with reg.capture(reset=False):
            reg.incr("kept")
        assert reg.counters() == {"kept": 2}

    def test_snapshot_shape(self):
        reg = Registry(enabled=True)
        reg.incr("c", 2)
        with reg.time("t"):
            pass
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["timings"]["t"]["count"] == 1
        assert snap["timings"]["t"]["seconds"] >= 0.0


class TestTimerMax:
    def test_max_tracks_longest_span(self):
        t = Registry().timer("t")
        for seconds in (0.2, 0.5, 0.1):
            t.observe(seconds)
        assert t.max == 0.5
        assert t.count == 3


class RecordingHook:
    """A SpanHook that logs its calls, for attachment tests."""

    def __init__(self):
        self.calls = []

    def begin(self, name):
        self.calls.append(("begin", name))
        return f"token:{name}"

    def end(self, name, token, seconds):
        self.calls.append(("end", name, token, seconds >= 0))


class TestSpanHooks:
    def test_hook_sees_begin_and_end_with_token(self):
        reg = Registry(enabled=True)
        hook = RecordingHook()
        reg.add_hook(hook)
        with reg.time("phase"):
            pass
        assert hook.calls == [
            ("begin", "phase"),
            ("end", "phase", "token:phase", True),
        ]

    def test_hooks_never_fire_while_disabled(self):
        reg = Registry()
        hook = RecordingHook()
        reg.add_hook(hook)
        with reg.time("phase"):
            pass
        assert hook.calls == []

    def test_remove_hook_detaches(self):
        reg = Registry(enabled=True)
        hook = RecordingHook()
        reg.add_hook(hook)
        reg.remove_hook(hook)
        assert reg.hooks == ()
        with reg.time("phase"):
            pass
        assert hook.calls == []

    def test_hooks_survive_reset(self):
        reg = Registry(enabled=True)
        hook = RecordingHook()
        reg.add_hook(hook)
        reg.reset()
        with reg.time("phase"):
            pass
        assert hook.calls

    def test_later_hook_nests_inside_earlier(self):
        order = []

        class Ordered(RecordingHook):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def begin(self, name):
                order.append(f"begin:{self.tag}")

            def end(self, name, token, seconds):
                order.append(f"end:{self.tag}")

        reg = Registry(enabled=True)
        reg.add_hook(Ordered("a"))
        reg.add_hook(Ordered("b"))
        with reg.time("phase"):
            pass
        assert order == ["begin:a", "begin:b", "end:b", "end:a"]

    def test_trace_and_traced_reach_hooks(self):
        hook = RecordingHook()
        OBS.enable()
        OBS.add_hook(hook)
        try:

            @traced("hooked.fn")
            def fn():
                return 7

            with trace("hooked.block"):
                fn()
        finally:
            OBS.remove_hook(hook)
        assert [c[:2] for c in hook.calls] == [
            ("begin", "hooked.block"),
            ("begin", "hooked.fn"),
            ("end", "hooked.fn"),
            ("end", "hooked.block"),
        ]

    def test_timer_still_records_under_hooks(self):
        reg = Registry(enabled=True)
        reg.add_hook(RecordingHook())
        with reg.time("t"):
            pass
        assert reg.timer("t").count == 1


class TestStateMerging:
    def make_worker(self, evals, span_seconds):
        reg = Registry(enabled=True)
        reg.incr("gain.evaluations", evals)
        reg.timer("solve").observe(span_seconds)
        return reg

    def test_export_state_shape(self):
        reg = self.make_worker(5, 0.25)
        state = reg.export_state()
        assert state["counters"] == {"gain.evaluations": 5}
        solve = state["timers"]["solve"]
        assert solve == reg.timer("solve").state()
        assert solve["layout"] == LAYOUT_ID
        assert (solve["count"], solve["sum"], solve["max"]) == (1, 0.25, 0.25)

    def test_merge_sums_counters_and_combines_timers(self):
        a = self.make_worker(5, 0.25)
        b = self.make_worker(7, 0.10)
        a.merge_state(b.export_state())
        assert a.counters() == {"gain.evaluations": 12}
        solve = a.timer("solve")
        assert solve.sum == pytest.approx(0.35)
        assert solve.count == 2
        assert solve.max == 0.25

    def test_merge_is_commutative_on_counters(self):
        states = [self.make_worker(k, 0.01 * k).export_state() for k in (1, 2, 3)]
        fwd, rev = Registry(), Registry()
        for s in states:
            fwd.merge_state(s)
        for s in reversed(states):
            rev.merge_state(s)
        assert fwd.counters() == rev.counters()
        # Timer totals are float sums: order-independent up to rounding.
        assert fwd.timings()["solve"]["count"] == rev.timings()["solve"]["count"]
        assert fwd.timings()["solve"]["seconds"] == pytest.approx(
            rev.timings()["solve"]["seconds"]
        )

    def test_merge_refuses_timer_state_without_layout(self):
        # The {total, count, max} timer form has no bucket layout; it
        # must not merge as an empty sum.
        reg = Registry()
        old = {"timers": {"solve": {"total": 0.25, "count": 1, "max": 0.25}}}
        with pytest.raises(ValueError, match="'solve'.*layout"):
            reg.merge_state(old)

    def test_merge_into_empty_registry_reproduces_worker(self):
        worker = self.make_worker(9, 0.5)
        parent = Registry()
        parent.merge_state(worker.export_state())
        assert parent.counters() == worker.counters()
        assert parent.timings() == worker.timings()


class TestTraceHelpers:
    def test_trace_records_on_default_registry(self):
        OBS.enable()
        with trace("phase"):
            pass
        assert OBS.timer("phase").count == 1

    def test_trace_noop_when_disabled(self):
        with trace("phase"):
            pass
        assert OBS.timings() == {}

    def test_traced_bare_decorator(self):
        @traced
        def work():
            return 42

        OBS.enable()
        assert work() == 42
        (name,) = OBS.timings()
        assert "work" in name

    def test_traced_named_decorator(self):
        @traced("custom.label")
        def work(x, y=1):
            return x + y

        OBS.enable()
        assert work(2, y=3) == 5
        assert OBS.timer("custom.label").count == 1

    def test_traced_disabled_passthrough(self):
        @traced("never.recorded")
        def work():
            return "ok"

        assert work() == "ok"
        assert OBS.timings() == {}

    def test_traced_preserves_metadata(self):
        @traced("label")
        def documented():
            """Docstring survives."""

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "Docstring survives."


class TestInstrumentedHotPaths:
    def test_greedy_reports_counters_and_phases(self, medium_udg):
        from repro.cds import greedy_connector_cds

        _, graph = medium_udg
        with OBS.capture() as reg:
            result = greedy_connector_cds(graph)
        counters = reg.counters()
        assert counters["gain.evaluations"] > 0
        assert counters["gain.dsu_unions"] > 0
        assert counters["greedy.connectors_chosen"] == len(result.connectors)
        assert counters["mis.selected"] == len(result.dominators)
        timings = reg.timings()
        assert timings["greedy.phase1"]["count"] == 1
        assert timings["greedy.phase2"]["count"] == 1

    def test_waf_reports_counters(self, medium_udg):
        from repro.cds import waf_cds

        _, graph = medium_udg
        with OBS.capture() as reg:
            result = waf_cds(graph)
        counters = reg.counters()
        assert counters["waf.coverage_evaluations"] > 0
        assert counters["waf.connectors_chosen"] == len(result.connectors)
        assert reg.timings()["waf.phase2"]["count"] == 1

    def test_udg_builders_report_pair_economy(self, small_udg):
        from repro.graphs.udg import unit_disk_graph, unit_disk_graph_naive

        points, _ = small_udg
        n = len(points)
        with OBS.capture() as reg:
            fast = unit_disk_graph(points)
            slow = unit_disk_graph_naive(points)
        counters = reg.counters()
        assert counters["udg.naive.pairs_tested"] == n * (n - 1) // 2
        assert counters["udg.grid.pairs_tested"] <= counters["udg.naive.pairs_tested"]
        assert counters["udg.grid.edges_emitted"] == fast.edge_count()
        assert counters["udg.naive.edges_emitted"] == slow.edge_count()

    def test_simulator_mirrors_metrics(self, path5):
        from repro.distributed import distributed_waf_cds
        from repro.experiments.instances import int_labeled

        graph = int_labeled(path5)
        with OBS.capture() as reg:
            _, metrics = distributed_waf_cds(graph)
        counters = reg.counters()
        assert counters["sim.transmissions"] == metrics.transmissions
        assert counters["sim.rounds"] == metrics.rounds
        assert reg.timings()["distributed.waf"]["count"] == 1

    def test_disabled_registry_records_nothing(self, small_udg):
        from repro.cds import greedy_connector_cds

        _, graph = small_udg
        greedy_connector_cds(graph)
        assert OBS.snapshot() == {"counters": {}, "timings": {}}
