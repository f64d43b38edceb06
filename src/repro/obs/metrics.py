"""Live telemetry tier one: the fixed-bucket log-scaled histogram.

Counters (:mod:`repro.obs.core`) answer *how much*; :class:`Histogram`
answers *how the individual samples are distributed*, which is the
question a latency SLO or a per-round load profile asks.  It is also
the one duration accumulator: every ``trace()`` span observes into a
span histogram (:meth:`repro.obs.core.Registry.timer`), whose
``sum``/``count``/``max`` render as the timer outputs.  It follows the
same design rules as the rest of ``repro.obs``:

* **Zero dependencies, near-zero overhead.**  ``observe`` is a couple
  of float compares, one ``log10`` and a dict increment — cheap enough
  for per-request paths; the disabled hot paths never reach it (callers
  guard with ``if OBS.enabled:`` exactly as for counters).
* **Fixed bucket layout, exact merging.**  Bucket boundaries are the
  *same* in every process — ``10 ** (k / 8)`` for integer ``k`` — so
  two histograms merge by summing bucket counts, with no resampling and
  no approximation on top of the bucketing itself.  Merging is exact,
  associative and commutative on the integer bucket counts, which is
  what lets ``--jobs N`` workers fold histograms exactly like counters
  (:meth:`repro.obs.core.Registry.merge_state`).
* **Bounded error.**  Eight buckets per decade means one bucket spans a
  ratio of ``10 ** (1/8)`` (~1.334x), so :meth:`percentile` is accurate
  to within ~34% relative — plenty for p50/p95/p99 dashboards — while
  ``count``/``sum``/``min``/``max`` stay exact.

The layout covers ``1e-9 .. 1e9`` (144 buckets) plus an underflow and
an overflow bucket, so one class serves wall-clock seconds, queue
depths and per-round node counts alike.  Buckets are stored sparsely
(index → count), so an idle histogram costs a few hundred bytes.

Two serialised forms:

* :meth:`state` / :meth:`merge_state` — the sparse cross-process form
  carried inside :meth:`Registry.export_state`;
* :meth:`to_record` / :func:`record_percentile` — the cumulative
  ``[upper_bound, cumulative_count]`` form embedded in RunRecords and
  the ``repro.obs/metrics-snapshot/v1`` stream (finite bounds only; the
  overflow bucket is implied by ``count``), validated by
  :func:`repro.obs.record.validate_run_record`.

See ``docs/observability.md`` §7.
"""

from __future__ import annotations

import math
from typing import Mapping

__all__ = [
    "BUCKETS_PER_DECADE",
    "MIN_EXP",
    "MAX_EXP",
    "LAYOUT_ID",
    "Histogram",
    "bucket_upper_bound",
    "record_percentile",
    "validate_histogram_record",
]

#: Bucket resolution: buckets per decade of the log scale.
BUCKETS_PER_DECADE = 8

#: The regular buckets cover ``10**MIN_EXP .. 10**MAX_EXP``; values at
#: or below the lower edge land in the underflow bucket (index ``-1``),
#: values above the upper edge in the overflow bucket.
MIN_EXP = -9
MAX_EXP = 9

#: Number of regular buckets.
_N_BUCKETS = (MAX_EXP - MIN_EXP) * BUCKETS_PER_DECADE

#: Layout fingerprint carried by every serialised histogram; merging
#: histograms with different layouts is a hard error, never a silent
#: resample.
LAYOUT_ID = f"log10/{BUCKETS_PER_DECADE}@{MIN_EXP}:{MAX_EXP}"

#: Index of the overflow bucket (one past the last regular bucket).
_OVERFLOW = _N_BUCKETS

_LOG_MIN = float(MIN_EXP)


def bucket_upper_bound(index: int) -> float:
    """The inclusive upper bound of bucket ``index``.

    Bucket ``i`` covers ``(bucket_upper_bound(i - 1),
    bucket_upper_bound(i)]``; the underflow bucket is index ``-1``
    (upper bound ``10**MIN_EXP``), the overflow bucket has no finite
    bound and raises.
    """
    if index >= _OVERFLOW:
        raise ValueError(f"bucket {index} is the overflow bucket (no bound)")
    return 10.0 ** (MIN_EXP + (index + 1) / BUCKETS_PER_DECADE)


def _bucket_index(value: float) -> int:
    """The bucket holding ``value`` (exact at the boundaries).

    The ``log10`` estimate can be off by one ulp right at a bucket
    edge, so the candidate is nudged against the exact ``10 ** (k/8)``
    bounds — bucketing must be a pure function of the value, identical
    on every platform, or cross-process merges would skew.
    """
    if value <= 10.0 ** MIN_EXP:
        return -1
    index = math.ceil((math.log10(value) - _LOG_MIN) * BUCKETS_PER_DECADE) - 1
    if index < -1:
        index = -1
    elif index > _OVERFLOW:
        index = _OVERFLOW
    # Nudge against the exact bounds (at most one step each way).
    while index < _OVERFLOW and value > bucket_upper_bound(index):
        index += 1
    while index > -1 and value <= bucket_upper_bound(index - 1):
        index -= 1
    return index


class Histogram:
    """A named log-scaled histogram with exact cross-process merging.

    The mutating API mirrors :class:`~repro.obs.core.Counter`:
    ``observe(value)`` is the per-sample entry point and everything
    else is read-side.  Negative values clamp into the underflow
    bucket (they cannot occur for the durations/counts this layer
    records, but a clamp beats a crash on a clock hiccup); NaN and
    ±infinity are rejected — they would poison ``sum`` silently.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = {}

    def observe(self, value: int | float) -> None:
        """Record one sample.

        Raises:
            ValueError: for NaN or ±infinity.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name!r} cannot observe {value!r}"
            )
        index = _bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- reading ------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> dict[int, int]:
        """Sparse ``bucket index -> count`` (sorted, a copy)."""
        return {i: self._buckets[i] for i in sorted(self._buckets)}

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, resolved to a bucket upper bound.

        The returned value is an upper bound for the true sample at
        that rank: at most one bucket width (~1.334x) above it, exact
        whenever the rank lands in the min or max sample.  Returns 0.0
        for an empty histogram.

        Raises:
            ValueError: for ``pct`` outside ``0..100``.
        """
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in 0..100, got {pct}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * pct / 100.0))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                if index == -1:
                    # Everything in the underflow bucket is <= 1e-9;
                    # the recorded minimum is the best answer.
                    return self.min if self.min is not None else 0.0
                if index == _OVERFLOW:
                    return self.max if self.max is not None else 0.0
                value = bucket_upper_bound(index)
                # Clamp to the exact extremes: the bucket bound can
                # overshoot max (or undershoot min for rank 1).
                if self.max is not None and value > self.max:
                    value = self.max
                if self.min is not None and value < self.min:
                    value = self.min
                return value
        return self.max if self.max is not None else 0.0  # pragma: no cover

    # -- merging ------------------------------------------------------

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact, associative)."""
        self.merge_state(other.state())

    def state(self) -> dict:
        """The picklable cross-process form (sparse buckets)."""
        return {
            "layout": LAYOUT_ID,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): c for i, c in self.buckets().items()},
        }

    def merge_state(self, state: Mapping) -> None:
        """Fold a :meth:`state` dict into this histogram.

        Raises:
            ValueError: when ``state`` carries no bucket ``layout`` (for
                instance a ``{total, count, max}`` timer entry, which
                would otherwise merge as an empty sum) or was produced
                under a different layout (merging would misbucket).
        """
        layout = state.get("layout")
        if layout is None:
            raise ValueError(
                f"histogram {self.name!r}: state has no bucket 'layout' "
                f"(keys {sorted(state)}); refusing to merge"
            )
        if layout != LAYOUT_ID:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge layout {layout!r} "
                f"into {LAYOUT_ID!r}"
            )
        for key, count in state.get("buckets", {}).items():
            index = int(key)
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += state.get("count", 0)
        self.sum += state.get("sum", 0.0)
        for bound, better in (("min", min), ("max", max)):
            value = state.get(bound)
            if value is None:
                continue
            mine = getattr(self, bound)
            setattr(self, bound, value if mine is None else better(mine, value))

    # -- the record form ----------------------------------------------

    def to_record(self) -> dict:
        """The cumulative JSON form embedded in RunRecords/snapshots.

        ``buckets`` is a list of ``[upper_bound, cumulative_count]``
        pairs — finite bounds only, strictly increasing, cumulative
        counts non-decreasing.  Samples above the last regular bucket
        (the overflow bucket) appear only in ``count``, never under a
        non-finite bound, so every serialised number is finite.
        """
        pairs: list[list] = []
        cumulative = 0
        for index in sorted(self._buckets):
            if index == _OVERFLOW:
                continue
            cumulative += self._buckets[index]
            pairs.append([bucket_upper_bound(index), cumulative])
        return {
            "layout": LAYOUT_ID,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": pairs,
        }

    def summary(self) -> dict:
        """Percentile digest for live stats endpoints and reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.6g})"
        )


def record_percentile(record: Mapping, pct: float) -> float:
    """Nearest-rank percentile straight off a :meth:`Histogram.to_record`
    dict — what ``obs tail`` and report tooling use without rebuilding a
    histogram object."""
    count = record.get("count", 0)
    if not count:
        return 0.0
    rank = max(1, math.ceil(count * pct / 100.0))
    low = record.get("min")
    high = record.get("max")
    for bound, cumulative in record.get("buckets", []):
        if cumulative >= rank:
            value = bound
            if high is not None and value > high:
                value = high
            if low is not None and value < low:
                value = low
            return value
    return high if high is not None else 0.0


def validate_histogram_record(name: str, obj: object) -> list[str]:
    """Schema-check one serialised histogram (the ``to_record`` form).

    Mirrors the counter checks of
    :func:`repro.obs.record.validate_run_record`: every number must be
    finite (NaN/±inf bucket bounds are rejected outright), counts
    non-negative integers, and the cumulative bucket counts monotone
    and bounded by ``count``.
    """
    errors: list[str] = []
    prefix = f"histogram {name!r}"
    if not isinstance(obj, Mapping):
        return [f"{prefix} must be an object, got {type(obj).__name__}"]
    count = obj.get("count")
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        errors.append(f"{prefix}: count must be an integer >= 0")
        count = None
    total = obj.get("sum")
    if (
        isinstance(total, bool)
        or not isinstance(total, (int, float))
        or not math.isfinite(total)
    ):
        errors.append(f"{prefix}: sum must be a finite number")
    for key in ("min", "max"):
        value = obj.get(key)
        if value is None:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            errors.append(f"{prefix}: {key} must be a finite number or null")
    buckets = obj.get("buckets")
    if not isinstance(buckets, list):
        errors.append(f"{prefix}: buckets must be a list of [bound, count]")
        return errors
    previous_bound: float | None = None
    previous_cum = 0
    for i, pair in enumerate(buckets):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            errors.append(f"{prefix}: buckets[{i}] must be a [bound, count] pair")
            continue
        bound, cumulative = pair
        if (
            isinstance(bound, bool)
            or not isinstance(bound, (int, float))
            or not math.isfinite(bound)
        ):
            errors.append(
                f"{prefix}: buckets[{i}] bound must be finite, got {bound!r}"
            )
            continue
        if previous_bound is not None and bound <= previous_bound:
            errors.append(f"{prefix}: buckets[{i}] bounds must increase")
        previous_bound = bound
        if (
            isinstance(cumulative, bool)
            or not isinstance(cumulative, int)
            or cumulative < 0
        ):
            errors.append(
                f"{prefix}: buckets[{i}] count must be an integer >= 0"
            )
            continue
        if cumulative < previous_cum:
            errors.append(
                f"{prefix}: buckets[{i}] cumulative count decreases"
            )
        previous_cum = cumulative
    if count is not None and buckets and not errors and previous_cum > count:
        errors.append(
            f"{prefix}: cumulative bucket count {previous_cum} exceeds "
            f"count {count}"
        )
    return errors
