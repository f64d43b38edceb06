"""Tests for the structured event stream (``repro.obs/event/v1``)."""

import json

import pytest

from repro.obs import OBS, Registry
from repro.obs.events import (
    EVENT_SCHEMA_ID,
    EventLog,
    merge_events,
    parse_events,
    read_events,
    replay,
    validate_events,
    write_events,
)


@pytest.fixture(autouse=True)
def _clean_default_registry():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def make_log():
    """A registry + attached log with a small nested span history."""
    reg = Registry(enabled=True)
    log = EventLog(reg, run_id="test-run", worker=0)
    reg.add_hook(log)
    with reg.time("outer"):
        reg.incr("work.outer", 2)
        with reg.time("inner"):
            reg.incr("work.inner", 5)
        with reg.time("inner"):
            reg.incr("work.inner", 7)
    with reg.time("second_root"):
        pass
    reg.remove_hook(log)
    return reg, log


class TestEventEmission:
    def test_header_first(self):
        _, log = make_log()
        head = log.events[0]
        assert head["type"] == "run"
        assert head["schema"] == EVENT_SCHEMA_ID
        assert head["run"] == "test-run"

    def test_begin_end_pairing_and_parents(self):
        _, log = make_log()
        begins = [e for e in log.events if e["type"] == "begin"]
        ends = [e for e in log.events if e["type"] == "end"]
        assert len(begins) == len(ends) == 4
        by_name = {e["name"]: e for e in begins}
        assert by_name["outer"]["parent"] is None
        assert by_name["second_root"]["parent"] is None
        inner_parents = {
            e["parent"] for e in begins if e["name"] == "inner"
        }
        assert inner_parents == {by_name["outer"]["span"]}

    def test_counter_deltas_scoped_to_span(self):
        _, log = make_log()
        ends = {(e["name"], e["span"]): e for e in log.events if e["type"] == "end"}
        inner_deltas = sorted(
            e["counters"]["work.inner"]
            for (name, _), e in ends.items()
            if name == "inner"
        )
        assert inner_deltas == [5, 7]
        (outer,) = [e for (name, _), e in ends.items() if name == "outer"]
        # The outer span absorbs its own counter and both children's.
        assert outer["counters"] == {"work.outer": 2, "work.inner": 12}
        (second,) = [e for (name, _), e in ends.items() if name == "second_root"]
        assert second["counters"] == {}

    def test_timestamps_monotone_within_log(self):
        _, log = make_log()
        ts = [e["t"] for e in log.events if "t" in e]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_no_events_while_detached_or_disabled(self):
        reg = Registry(enabled=True)
        log = EventLog(reg)
        with reg.time("unhooked"):
            pass
        reg.add_hook(log)
        reg.disable()
        with reg.time("disabled"):
            pass
        assert [e["type"] for e in log.events] == ["run"]


class TestNoteEvents:
    def make_noted_log(self):
        reg = Registry(enabled=True)
        log = EventLog(reg, run_id="noted", worker=0)
        reg.add_hook(log)
        with reg.time("outer"):
            reg.note("reliability.retry", {"cell": "n=10;seed=1", "attempt": 1})
        reg.note("reliability.failure", {"cell": "n=10;seed=2", "kind": "crash"})
        reg.remove_hook(log)
        return reg, log

    def test_note_event_shape(self):
        _, log = self.make_noted_log()
        notes = [e for e in log.events if e["type"] == "note"]
        assert [n["name"] for n in notes] == [
            "reliability.retry", "reliability.failure",
        ]
        for note in notes:
            assert isinstance(note["data"], dict)
            assert note["t"] >= 0
            assert note["seq"] == log.events.index(note)
        assert validate_events(log.events) == []

    def test_note_outside_hooks_or_disabled_is_dropped(self):
        reg = Registry(enabled=True)
        log = EventLog(reg)
        reg.note("unhooked", {})
        reg.add_hook(log)
        reg.disable()
        reg.note("disabled", {})
        assert [e["type"] for e in log.events] == ["run"]

    def test_note_defaults_to_empty_data(self):
        reg = Registry(enabled=True)
        log = EventLog(reg)
        reg.add_hook(log)
        reg.note("bare")
        (note,) = [e for e in log.events if e["type"] == "note"]
        assert note["data"] == {}

    def test_replay_attaches_notes_to_innermost_open_span(self):
        _, log = self.make_noted_log()
        (root,) = replay(log.events)
        assert root.name == "outer"
        (attached,) = root.notes
        assert attached["name"] == "reliability.retry"
        assert attached["cell"] == "n=10;seed=1"
        # The span-less note is not in the forest but stays readable
        # straight off the event list.
        assert any(
            e["type"] == "note" and e["name"] == "reliability.failure"
            for e in log.events
        )

    def test_note_round_trips_through_jsonl(self, tmp_path):
        _, log = self.make_noted_log()
        path = tmp_path / "noted.jsonl"
        log.write(path)
        assert read_events(path) == json.loads(json.dumps(log.events))

    def test_validation_rejects_malformed_notes(self):
        _, log = self.make_noted_log()
        events = [dict(e) for e in log.events]
        for e in events:
            if e["type"] == "note":
                e["data"] = "not-a-dict"
        assert any("data" in err for err in validate_events(events))
        events = [dict(e) for e in log.events]
        for e in events:
            if e["type"] == "note":
                del e["name"]
        assert any("name" in err for err in validate_events(events))


class TestZeroNewCallSites:
    def test_existing_solver_sites_emit_events(self, medium_udg):
        """The greedy's trace() sites stream events with no solver change."""
        from repro.cds import greedy_connector_cds

        _, graph = medium_udg
        with OBS.capture() as reg:
            log = EventLog(reg, run_id="solver")
            reg.add_hook(log)
            greedy_connector_cds(graph)
            reg.remove_hook(log)
        names = {e["name"] for e in log.events if e["type"] == "begin"}
        assert {"greedy.phase1", "greedy.phase2", "mis.first_fit"} <= names
        (phase2,) = [
            e
            for e in log.events
            if e["type"] == "end" and e["name"] == "greedy.phase2"
        ]
        assert phase2["counters"]["gain.evaluations"] > 0
        assert phase2["counters"]["greedy.connectors_chosen"] > 0
        # mis.first_fit nests inside greedy.phase1.
        roots = replay(log.events)
        tree = {n.name: n for r in roots for n in r.walk()}
        assert tree["mis.first_fit"].parent.name == "greedy.phase1"

    def test_traced_decorator_emits_events(self):
        from repro.obs import traced

        @traced("decorated.fn")
        def fn():
            return 1

        OBS.enable()
        log = EventLog(OBS)
        OBS.add_hook(log)
        fn()
        OBS.remove_hook(log)
        assert any(
            e["type"] == "begin" and e["name"] == "decorated.fn"
            for e in log.events
        )


class TestRoundTrip:
    def test_emit_parse_replay_exact(self, tmp_path):
        """Emit → write → parse → replay reproduces tree and deltas."""
        _, log = make_log()
        path = tmp_path / "run.events.jsonl"
        log.write(path)
        events = read_events(path)
        assert events == json.loads(
            json.dumps(log.events)
        )  # byte-level fidelity mod JSON typing
        roots = replay(events)
        assert [r.name for r in roots] == ["outer", "second_root"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.counters == {"work.outer": 2, "work.inner": 12}
        assert [c.counters["work.inner"] for c in outer.children] == [5, 7]
        in_memory = replay(log.events)
        assert [n.counters for r in roots for n in r.walk()] == [
            n.counters for r in in_memory for n in r.walk()
        ]
        assert all(n.duration is not None and n.duration >= 0
                   for r in roots for n in r.walk())

    def test_unclosed_span_survives_replay(self):
        reg = Registry(enabled=True)
        log = EventLog(reg)
        reg.add_hook(log)
        span = reg.time("crashed")
        span.__enter__()  # never exited: simulates a crash mid-span
        (root,) = replay(log.events)
        assert root.name == "crashed"
        assert root.duration is None


class TestValidation:
    def test_unknown_schema_version_rejected(self, tmp_path):
        _, log = make_log()
        events = [dict(e) for e in log.events]
        events[0]["schema"] = "repro.obs/event/v99"
        path = tmp_path / "bad.jsonl"
        write_events(events, path)
        with pytest.raises(ValueError, match="unknown event schema"):
            read_events(path)

    def test_missing_header_rejected(self):
        _, log = make_log()
        assert validate_events(log.events[1:])

    def test_empty_stream_rejected(self):
        assert validate_events([])
        with pytest.raises(ValueError):
            parse_events("")

    def test_negative_duration_rejected(self):
        _, log = make_log()
        events = [dict(e) for e in log.events]
        for e in events:
            if e["type"] == "end":
                e["dur"] = -1.0
        assert any("dur" in err for err in validate_events(events))

    def test_corrupt_nesting_raises_on_replay(self):
        _, log = make_log()
        events = [dict(e) for e in log.events]
        for e in events:
            if e["type"] == "end":
                e["span"] = 999
        with pytest.raises(ValueError, match="corrupt"):
            replay(events)


class TestMerge:
    def make_worker_log(self, run_id, names):
        reg = Registry(enabled=True)
        log = EventLog(reg, run_id=run_id)
        reg.add_hook(log)
        for name in names:
            with reg.time(name):
                reg.incr(f"{name}.count")
        reg.remove_hook(log)
        return log.events

    def test_merge_is_deterministic_and_renumbers_workers(self):
        a = self.make_worker_log("w0", ["alpha"])
        b = self.make_worker_log("w1", ["beta", "gamma"])
        merged = merge_events([a, b])
        again = merge_events([a, b])
        assert merged == again
        assert {e["worker"] for e in merged if e["type"] != "run"} == {0, 1}
        # Headers first, then events; per-worker order preserved.
        assert [e["type"] for e in merged[:2]] == ["run", "run"]
        b_names = [
            e["name"] for e in merged if e["type"] == "begin" and e["worker"] == 1
        ]
        assert b_names == ["beta", "gamma"]

    def test_replay_of_merged_stream_keeps_workers_apart(self):
        a = self.make_worker_log("w0", ["alpha"])
        b = self.make_worker_log("w1", ["beta"])
        roots = replay(merge_events([a, b]))
        assert sorted((r.name, r.worker) for r in roots) == [
            ("alpha", 0),
            ("beta", 1),
        ]
        assert all(not r.children for r in roots)
