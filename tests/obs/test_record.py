"""Tests for the RunRecord schema, serialisation and validation."""

import json

import pytest

from repro.obs import (
    RUN_RECORD_SCHEMA,
    SCHEMA_ID,
    OBS,
    Registry,
    RunRecord,
    assert_valid_run_record,
    render_record,
    render_report,
    validate_run_record,
)


def make_record(**overrides) -> RunRecord:
    base = dict(
        algorithm="greedy",
        instance={"n": 20, "side": 3.8},
        seed=1,
        counters={"gain.evaluations": 120, "gain.dsu_unions": 9},
        timings={"greedy.phase2": {"seconds": 0.01, "count": 1}},
        results={"cds_size": 9},
        meta={"note": "test"},
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        rec = make_record()
        path = tmp_path / "rec.json"
        rec.write(path)
        loaded = RunRecord.load(path)
        assert loaded == rec

    def test_serialised_object_is_schema_valid(self):
        assert validate_run_record(make_record().to_json_obj()) == []

    def test_schema_id_embedded(self):
        assert make_record().to_json_obj()["schema"] == SCHEMA_ID

    def test_from_registry_snapshot(self):
        reg = Registry(enabled=True)
        reg.incr("ops", 3)
        with reg.time("t"):
            pass
        rec = RunRecord.from_registry(
            reg, algorithm="x", instance={"n": 5}, seed=None, results={"size": 2}
        )
        assert rec.counters == {"ops": 3}
        assert rec.timings["t"]["count"] == 1
        assert rec.seed is None
        assert validate_run_record(rec.to_json_obj()) == []


class TestValidation:
    def test_missing_field_reported(self):
        obj = make_record().to_json_obj()
        del obj["counters"]
        assert any("counters" in e for e in validate_run_record(obj))

    def test_wrong_schema_id(self):
        obj = make_record().to_json_obj()
        obj["schema"] = "something/else"
        assert validate_run_record(obj)

    def test_non_numeric_counter(self):
        obj = make_record().to_json_obj()
        obj["counters"]["bad"] = "many"
        assert any("bad" in e for e in validate_run_record(obj))

    def test_bool_counter_rejected(self):
        obj = make_record().to_json_obj()
        obj["counters"]["flag"] = True
        assert validate_run_record(obj)

    def test_malformed_timing(self):
        obj = make_record().to_json_obj()
        obj["timings"]["t"] = {"seconds": -1.0, "count": 1}
        assert validate_run_record(obj)
        obj["timings"]["t"] = {"seconds": 0.1}
        assert validate_run_record(obj)

    def test_nan_timing_rejected(self):
        # NaN compares False to everything, so a naive `seconds < 0`
        # check waves it through — the validator must catch it.
        obj = make_record().to_json_obj()
        obj["timings"]["t"] = {"seconds": float("nan"), "count": 1}
        assert any("finite" in e for e in validate_run_record(obj))

    def test_infinite_timing_rejected(self):
        obj = make_record().to_json_obj()
        obj["timings"]["t"] = {"seconds": float("inf"), "count": 1}
        assert any("finite" in e for e in validate_run_record(obj))

    def test_nan_and_infinite_counters_rejected(self):
        obj = make_record().to_json_obj()
        obj["counters"]["bad.nan"] = float("nan")
        obj["counters"]["bad.inf"] = float("-inf")
        errors = validate_run_record(obj)
        assert any("bad.nan" in e for e in errors)
        assert any("bad.inf" in e for e in errors)

    def test_nan_from_json_text_rejected(self):
        # json.loads happily parses bare NaN — the validator is the
        # only line of defence for records edited or produced outside
        # this package.
        text = json.dumps(make_record().to_json_obj()).replace(
            "0.01", "NaN"
        )
        obj = json.loads(text)
        assert validate_run_record(obj)

    def test_unknown_schema_version_rejected(self):
        obj = make_record().to_json_obj()
        obj["schema"] = "repro.obs/run-record/v99"
        assert any("schema" in e for e in validate_run_record(obj))
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json_obj(obj)

    def test_empty_registry_record_is_valid(self):
        rec = RunRecord.from_registry(Registry(), algorithm="noop")
        obj = rec.to_json_obj()
        assert obj["counters"] == {} and obj["timings"] == {}
        assert validate_run_record(obj) == []

    def test_seed_must_be_int_or_null(self):
        obj = make_record().to_json_obj()
        obj["seed"] = "one"
        assert validate_run_record(obj)

    def test_non_object_rejected(self):
        assert validate_run_record([1, 2, 3])

    def test_assert_valid_raises_with_all_errors(self):
        obj = make_record().to_json_obj()
        obj["seed"] = "one"
        obj["algorithm"] = ""
        with pytest.raises(ValueError, match="seed"):
            assert_valid_run_record(obj)

    def test_schema_constant_required_fields_match_validator(self):
        # The documented schema and the validator agree on what is required.
        obj = make_record().to_json_obj()
        for field in RUN_RECORD_SCHEMA["required"]:
            broken = dict(obj)
            del broken[field]
            assert validate_run_record(broken), f"{field} should be required"


class TestHistogramSection:
    """The optional ``histograms`` section added with the live
    telemetry tier: present only when non-empty, validated like the
    counters (finite numbers only)."""

    @staticmethod
    def _registry_with_histogram() -> Registry:
        reg = Registry(enabled=True)
        reg.incr("ops")
        reg.observe("latency", 0.01)
        reg.observe("latency", 0.04)
        return reg

    def test_from_registry_carries_histograms(self):
        rec = RunRecord.from_registry(
            self._registry_with_histogram(), algorithm="x"
        )
        obj = rec.to_json_obj()
        assert obj["histograms"]["latency"]["count"] == 2
        assert validate_run_record(obj) == []

    def test_histogram_free_record_has_no_section(self):
        # Pre-histogram record shape is preserved bit-for-bit.
        reg = Registry(enabled=True)
        reg.incr("ops")
        obj = RunRecord.from_registry(reg, algorithm="x").to_json_obj()
        assert "histograms" not in obj

    def test_json_round_trip_with_histograms(self, tmp_path):
        rec = RunRecord.from_registry(
            self._registry_with_histogram(), algorithm="x"
        )
        path = tmp_path / "rec.json"
        rec.write(path)
        assert RunRecord.load(path) == rec

    def test_nan_and_inf_bucket_bounds_rejected(self):
        rec = RunRecord.from_registry(
            self._registry_with_histogram(), algorithm="x"
        )
        for bad in (float("nan"), float("inf"), float("-inf")):
            obj = rec.to_json_obj()
            obj["histograms"]["latency"]["buckets"][0][0] = bad
            assert any(
                "finite" in e for e in validate_run_record(obj)
            ), bad

    def test_malformed_histogram_entry_rejected(self):
        rec = RunRecord.from_registry(
            self._registry_with_histogram(), algorithm="x"
        )
        obj = rec.to_json_obj()
        obj["histograms"]["latency"] = ["not", "a", "histogram"]
        assert any("latency" in e for e in validate_run_record(obj))




class TestRendering:
    def test_render_record_mentions_key_facts(self):
        text = render_record(make_record())
        assert "greedy" in text
        assert "gain.evaluations" in text
        assert "cds_size" in text

    def test_render_report_empty_registry(self):
        assert "no activity" in render_report(Registry())


class TestValidateCLI:
    def test_valid_file_passes(self, tmp_path, capsys):
        from repro.obs.validate import main

        path = tmp_path / "rec.json"
        make_record().write(path)
        assert main([str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_file_fails(self, tmp_path, capsys):
        from repro.obs.validate import main

        path = tmp_path / "rec.json"
        obj = make_record().to_json_obj()
        del obj["timings"]
        path.write_text(json.dumps(obj))
        assert main([str(path)]) == 1
        assert "timings" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path):
        from repro.obs.validate import main

        assert main([str(tmp_path / "nope.json")]) == 1

    def test_no_args_usage(self):
        from repro.obs.validate import main

        assert main([]) == 2


@pytest.fixture(autouse=True)
def _clean_default_registry():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()
