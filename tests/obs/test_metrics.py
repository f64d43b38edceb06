"""Tests for the log-scaled histogram: bucketing, percentile accuracy
against a sorted-list reference, exact merge algebra, and the
worker-merge == serial equivalence that ``--jobs N`` relies on."""

import math
import random

import pytest

from repro.obs import OBS, Registry
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    LAYOUT_ID,
    Histogram,
    bucket_upper_bound,
    record_percentile,
    validate_histogram_record,
)
from repro.reliability import run_cells

#: One bucket spans this ratio; percentile error is bounded by it.
BUCKET_RATIO = 10 ** (1 / BUCKETS_PER_DECADE)


def reference_percentile(samples, pct):
    """Nearest-rank percentile on the raw sorted samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def _observe_chunk(values):
    """Module-level worker (pickles across pool processes): observe a
    chunk into a fresh capture and hand back the registry state, the
    same shape sweep workers ship to the parent under ``--jobs``."""
    with OBS.capture() as reg:
        reg.enable()
        for value in values:
            reg.observe("w.latency", value)
            reg.incr("w.samples")
        return reg.export_state()


class TestBucketing:
    def test_boundaries_are_exact(self):
        # A value sitting exactly on a bucket's upper bound belongs to
        # that bucket — bucketing must be a pure function of the value.
        for index in (-1, 0, 7, 71, 100):
            bound = bucket_upper_bound(index)
            h = Histogram("h")
            h.observe(bound)
            assert h.buckets() == {index: 1}

    def test_just_above_boundary_moves_up(self):
        bound = bucket_upper_bound(40)
        h = Histogram("h")
        h.observe(bound * (1 + 1e-12))
        assert h.buckets() == {41: 1}

    def test_underflow_and_overflow(self):
        h = Histogram("h")
        h.observe(0.0)
        h.observe(-3.0)
        h.observe(1e-300)
        h.observe(1e12)
        assert h.count == 4
        assert set(h.buckets()) == {-1, 144}
        assert h.min == -3.0 and h.max == 1e12

    def test_overflow_bucket_has_no_bound(self):
        with pytest.raises(ValueError, match="overflow"):
            bucket_upper_bound(144)

    def test_nan_and_inf_rejected(self):
        h = Histogram("h")
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                h.observe(bad)
        assert h.count == 0

    def test_exact_aggregates(self):
        h = Histogram("h")
        for value in [0.5, 2.0, 8.0]:
            h.observe(value)
        assert h.count == 3
        assert h.sum == 10.5
        assert h.min == 0.5 and h.max == 8.0
        assert h.mean == 3.5


class TestPercentile:
    def test_randomized_against_sorted_reference(self):
        # 1k samples spanning six decades: every histogram percentile
        # must sit within one bucket ratio above the nearest-rank
        # reference (and never below it).
        rng = random.Random(20260808)
        samples = [10 ** rng.uniform(-5, 1) for _ in range(1000)]
        h = Histogram("h")
        for value in samples:
            h.observe(value)
        for pct in (1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100):
            ref = reference_percentile(samples, pct)
            got = h.percentile(pct)
            assert ref <= got <= ref * BUCKET_RATIO * (1 + 1e-9), pct

    def test_extremes_are_exact(self):
        rng = random.Random(7)
        samples = [rng.expovariate(10.0) + 1e-6 for _ in range(257)]
        h = Histogram("h")
        for value in samples:
            h.observe(value)
        assert h.percentile(100) == max(samples)
        assert h.percentile(0) <= min(samples) * BUCKET_RATIO

    def test_single_sample_everywhere(self):
        h = Histogram("h")
        h.observe(0.042)
        for pct in (0, 50, 100):
            assert h.percentile(pct) == pytest.approx(0.042, rel=0.34)

    def test_empty_returns_zero(self):
        assert Histogram("h").percentile(99) == 0.0

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError, match="0..100"):
            Histogram("h").percentile(101)

    def test_record_percentile_matches_object(self):
        rng = random.Random(3)
        h = Histogram("h")
        for _ in range(400):
            h.observe(rng.uniform(0.001, 5.0))
        record = h.to_record()
        for pct in (50, 90, 95, 99):
            assert record_percentile(record, pct) == h.percentile(pct)


class TestMergeAlgebra:
    """Merging is exact arithmetic on integer bucket counts, so it must
    be associative and commutative — the property that makes worker
    fold order irrelevant."""

    @staticmethod
    def _hist(values):
        h = Histogram("m")
        for value in values:
            h.observe(value)
        return h

    # Powers of two: exact in float, so ``sum`` is order-independent
    # and states can be compared for full equality.
    A = [2.0**k for k in range(-8, 0)]
    B = [2.0**k for k in range(0, 8)]
    C = [0.25, 4.0, 4.0, 1024.0]

    def test_commutative(self):
        ab = self._hist(self.A)
        ab.merge(self._hist(self.B))
        ba = self._hist(self.B)
        ba.merge(self._hist(self.A))
        assert ab.state() == ba.state()

    def test_associative(self):
        left = self._hist(self.A)
        left.merge(self._hist(self.B))
        left.merge(self._hist(self.C))
        bc = self._hist(self.B)
        bc.merge(self._hist(self.C))
        right = self._hist(self.A)
        right.merge(bc)
        assert left.state() == right.state()

    def test_merge_equals_observing_everything(self):
        merged = self._hist(self.A)
        merged.merge(self._hist(self.B))
        assert merged.state() == self._hist(self.A + self.B).state()

    def test_merge_into_empty(self):
        h = Histogram("m")
        h.merge(self._hist(self.C))
        assert h.state() == self._hist(self.C).state()
        assert h.min == 0.25 and h.max == 1024.0

    def test_layout_mismatch_rejected(self):
        h = Histogram("m")
        state = self._hist(self.A).state()
        state["layout"] = "log2/4@-3:3"
        with pytest.raises(ValueError, match="layout"):
            h.merge_state(state)

    def test_state_round_trip(self):
        h = self._hist(self.A + self.C)
        clone = Histogram("m")
        clone.merge_state(h.state())
        assert clone.state() == h.state()
        assert clone.percentile(50) == h.percentile(50)


class TestWorkerMergeEquivalence:
    def test_jobs2_merge_matches_serial(self):
        # The --jobs contract, end to end: two worker processes observe
        # their chunks, export registry state, and the parent's fold
        # must equal one serial histogram over all values.
        values = [2.0**k for k in range(-10, 10)] * 3
        chunks = [values[0::2], values[1::2]]
        report = run_cells(_observe_chunk, chunks, jobs=2)
        assert report.ok
        states = report.results

        merged = Registry()
        for state in states:
            merged.merge_state(state)
        serial = Registry()
        for value in values:
            serial.observe("w.latency", value)
            serial.incr("w.samples")

        assert merged.counters() == {"w.samples": len(values)}
        assert (
            merged.histogram("w.latency").state()
            == serial.histogram("w.latency").state()
        )

    def test_registry_export_state_carries_histograms(self):
        reg = Registry()
        reg.observe("h", 0.5)
        state = reg.export_state()
        assert state["histograms"]["h"]["layout"] == LAYOUT_ID
        empty = Registry()
        empty.incr("c")
        assert "histograms" not in empty.export_state()


class TestRecordForm:
    def test_to_record_is_cumulative_and_valid(self):
        h = Histogram("r")
        for value in [0.001, 0.01, 0.01, 0.1]:
            h.observe(value)
        record = h.to_record()
        assert record["count"] == 4
        bounds = [b for b, _ in record["buckets"]]
        cums = [c for _, c in record["buckets"]]
        assert bounds == sorted(bounds)
        assert cums == sorted(cums) and cums[-1] == 4
        assert validate_histogram_record("r", record) == []

    def test_overflow_samples_only_in_count(self):
        h = Histogram("r")
        h.observe(1e12)
        record = h.to_record()
        assert record["count"] == 1 and record["buckets"] == []
        assert all(math.isfinite(b) for b, _ in record["buckets"])
        assert validate_histogram_record("r", record) == []

    def test_validator_rejects_nonfinite_bounds(self):
        h = Histogram("r")
        h.observe(0.5)
        for bad in (float("nan"), float("inf")):
            record = h.to_record()
            record["buckets"][0][0] = bad
            assert any(
                "finite" in e for e in validate_histogram_record("r", record)
            )

    def test_validator_rejects_decreasing_cumulative(self):
        record = {
            "layout": LAYOUT_ID,
            "count": 3,
            "sum": 1.0,
            "min": 0.1,
            "max": 0.5,
            "buckets": [[0.1, 2], [0.2, 1]],
        }
        assert any(
            "decreases" in e
            for e in validate_histogram_record("r", record)
        )

    def test_validator_rejects_cumulative_beyond_count(self):
        record = {
            "layout": LAYOUT_ID,
            "count": 1,
            "sum": 1.0,
            "min": 0.1,
            "max": 0.5,
            "buckets": [[0.1, 5]],
        }
        assert any(
            "exceeds" in e for e in validate_histogram_record("r", record)
        )

    def test_summary_shape(self):
        h = Histogram("r")
        for value in [0.01, 0.02, 0.04]:
            h.observe(value)
        summary = h.summary()
        assert set(summary) == {
            "count", "mean", "min", "p50", "p90", "p95", "p99", "max",
        }
        assert summary["count"] == 3
        assert summary["p50"] <= summary["p99"] <= summary["max"]
