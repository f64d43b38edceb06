"""Counters, span timers and the process-local registry.

The instrumentation layer every hot path reports into.  Design rules:

* **Zero dependencies** — standard library only, importable everywhere.
* **Near-zero overhead when disabled** — the registry starts disabled;
  instrumented code guards with ``if OBS.enabled:`` (one attribute load
  and a branch) and aggregates loop-local tallies before reporting, so
  the un-traced hot paths pay essentially nothing.
* **Process-local, not thread-safe** — the experiments, benchmarks and
  the CLI are single-threaded; a lock on every increment would cost
  more than the feature is worth.

Typical use::

    from repro.obs import OBS, trace, traced

    OBS.enable()
    with trace("phase2"):
        ...
        if OBS.enabled:
            OBS.incr("gain.evaluations", evals)
    print(OBS.snapshot())
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, Iterator, TypeVar

from .metrics import Histogram

__all__ = [
    "Counter",
    "Span",
    "SpanHook",
    "Registry",
    "OBS",
    "trace",
    "traced",
]

F = TypeVar("F", bound=Callable)


class Counter:
    """A named monotonically-growing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int | float = 0):
        self.name = name
        self.value = value

    def incr(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value!r})"


class Span:
    """Context manager observing one timed interval, in seconds, into a
    span :class:`~repro.obs.metrics.Histogram`.

    Created by :meth:`Registry.time`; a shared no-op instance is handed
    out when the registry is disabled so the ``with`` statement costs
    only two trivial method calls.
    """

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: Histogram | None):
        self._timer = timer
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        if self._timer is not None:
            self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._timer is not None:
            self._timer.observe(perf_counter() - self._t0)

    @property
    def active(self) -> bool:
        return self._timer is not None


_NULL_SPAN = Span(None)


class SpanHook:
    """Observer of span begin/end on a :class:`Registry`.

    Hooks are how the event stream (:mod:`repro.obs.events`) and the
    memory tracker (:mod:`repro.obs.profile`) see every existing
    ``trace()``/``@traced`` site without any new call sites in the
    instrumented code: :meth:`Registry.time` hands out a hooked span
    whenever hooks are attached.  Hooks only ever run while the
    registry is *enabled*, so the disabled hot path is untouched.

    ``begin`` may return a token (any object); it is passed back to
    ``end`` along with the measured duration, letting a hook carry
    per-span state without keeping its own stack in sync.

    ``note`` is the point-event channel: :meth:`Registry.note` fans an
    instantaneous, structured observation (a retry, a cell failure —
    see :mod:`repro.reliability`) out to every hook.  The default is a
    no-op so span-only hooks ignore it.
    """

    __slots__ = ()

    def begin(self, name: str) -> object:  # pragma: no cover - interface
        return None

    def end(self, name: str, token: object, seconds: float) -> None:
        """Called after the span's histogram observed ``seconds``."""

    def note(self, name: str, data: dict) -> None:
        """Called for point events (no duration, structured payload)."""


class _HookedSpan(Span):
    """A :class:`Span` that notifies the registry's hooks around the
    timed interval.  Hooks fire in attach order on begin and reverse
    order on end, so a later hook nests inside an earlier one."""

    __slots__ = ("_name", "_hooks", "_tokens")

    def __init__(self, timer: Histogram, name: str, hooks: tuple):
        super().__init__(timer)
        self._name = name
        self._hooks = hooks
        self._tokens: list = []

    def __enter__(self) -> "Span":
        self._tokens = [hook.begin(self._name) for hook in self._hooks]
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        seconds = perf_counter() - self._t0
        self._timer.observe(seconds)
        for hook, token in zip(reversed(self._hooks), reversed(self._tokens)):
            hook.end(self._name, token, seconds)


class Registry:
    """Process-local collection of counters, span timers and histograms.

    Span timers are :class:`~repro.obs.metrics.Histogram` objects kept
    in their own namespace (:meth:`timer` / :meth:`timers`), apart from
    the sample histograms of :meth:`histogram`: they render as
    ``timings`` in RunRecords, never as ``histograms``.

    Starts disabled; everything reported while disabled is dropped at
    the guard in the instrumented code, so enabling mid-process only
    sees activity from that point on.  :meth:`capture` is the one-stop
    "reset, enable, restore" context manager the harness, the CLI and
    the benchmark fixtures use.
    """

    __slots__ = ("enabled", "_counters", "_timers", "_histograms", "_hooks")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Histogram] = {}
        self._histograms: dict[str, Histogram] = {}
        self._hooks: tuple[SpanHook, ...] = ()

    # -- state --------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all counters, timers and histograms (the enabled flag
        is kept)."""
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()

    def capture(self, reset: bool = True):
        """Context manager: (optionally reset,) enable, then restore.

        Returns the registry itself, so ``with OBS.capture() as reg:``
        reads naturally.
        """
        return _Capture(self, reset)

    # -- hooks --------------------------------------------------------

    def add_hook(self, hook: SpanHook) -> None:
        """Attach a :class:`SpanHook`; it sees every span while enabled.

        Hooks survive :meth:`reset` (they are observers, not recorded
        state) and are stored as a tuple so :meth:`time` pays only a
        truthiness check when none are attached.
        """
        self._hooks = self._hooks + (hook,)

    def remove_hook(self, hook: SpanHook) -> None:
        self._hooks = tuple(h for h in self._hooks if h is not hook)

    @property
    def hooks(self) -> tuple[SpanHook, ...]:
        return self._hooks

    # -- recording ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def incr(self, name: str, amount: int | float = 1) -> None:
        """Add ``amount`` to counter ``name`` (regardless of ``enabled``
        — callers guard with ``if OBS.enabled:`` so the disabled path
        never even reaches here)."""
        self.counter(name).incr(amount)

    def timer(self, name: str) -> Histogram:
        """The span histogram called ``name`` (seconds), created on
        first use."""
        t = self._timers.get(name)
        if t is None:
            t = self._timers[name] = Histogram(name)
        return t

    def histogram(self, name: str) -> Histogram:
        """The sample :class:`~repro.obs.metrics.Histogram` called
        ``name``, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def observe(self, name: str, value: int | float) -> None:
        """Record one sample into histogram ``name`` (callers guard
        with ``if OBS.enabled:``, exactly as for :meth:`incr`)."""
        self.histogram(name).observe(value)

    def note(self, name: str, data: dict | None = None) -> None:
        """Emit an instantaneous structured event to the attached hooks.

        The point-event counterpart of :meth:`time`: no duration, no
        timer — just a name and a JSON-ready payload, delivered to
        every :class:`SpanHook` (the event stream records it as a
        ``note`` line; span-only hooks ignore it).  Dropped while the
        registry is disabled, like everything else.
        """
        if not self.enabled:
            return
        for hook in self._hooks:
            hook.note(name, dict(data or {}))

    def time(self, name: str) -> Span:
        """A span observing into span histogram ``name``; no-op when
        disabled.

        When hooks are attached the span also notifies them on
        begin/end — this is the single place the event stream and the
        memory tracker plug into, which is why every existing
        ``trace()``/``@traced`` site emits events with zero changes.
        """
        if not self.enabled:
            return _NULL_SPAN
        if self._hooks:
            return _HookedSpan(self.timer(name), name, self._hooks)
        return Span(self.timer(name))

    # -- reading ------------------------------------------------------

    def counters(self) -> dict[str, int | float]:
        """Counter values keyed by name, sorted for stable output."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def timers(self) -> dict[str, Histogram]:
        """Span histograms keyed by name, sorted for stable output."""
        return {name: self._timers[name] for name in sorted(self._timers)}

    def timings(self) -> dict[str, dict[str, float | int]]:
        """Span totals in the :class:`~repro.obs.record.RunRecord` shape."""
        return {
            name: {"seconds": t.sum, "count": t.count}
            for name, t in self.timers().items()
        }

    def histograms(self) -> dict:
        """Sample histograms keyed by name, sorted for stable output."""
        return {name: self._histograms[name] for name in sorted(self._histograms)}

    def histograms_record(self) -> dict:
        """Histograms in the cumulative RunRecord/snapshot form
        (:meth:`repro.obs.metrics.Histogram.to_record`)."""
        return {name: h.to_record() for name, h in self.histograms().items()}

    def snapshot(self) -> dict:
        """A JSON-ready dump: ``{"counters": ..., "timings": ...}`` —
        plus ``"histograms"`` whenever any were observed (the key is
        omitted otherwise so pre-histogram readers see the old shape).
        """
        snap = {"counters": self.counters(), "timings": self.timings()}
        if self._histograms:
            snap["histograms"] = self.histograms_record()
        return snap

    def __iter__(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    # -- cross-process merging ---------------------------------------

    def export_state(self) -> dict:
        """A picklable snapshot for merging across process boundaries.

        Unlike :meth:`snapshot` (the RunRecord shape), span timers and
        histograms both travel in :meth:`Histogram.state` form, so two
        workers' states merge bucket-exactly.
        """
        state = {
            "counters": self.counters(),
            "timers": {name: t.state() for name, t in self.timers().items()},
        }
        if self._histograms:
            state["histograms"] = {
                name: h.state() for name, h in self.histograms().items()
            }
        return state

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`export_state` into this registry.

        Counters sum; span timers and histograms merge bucket-exactly
        (:meth:`repro.obs.metrics.Histogram.merge_state`, which refuses
        a state without a bucket ``layout``).  The one
        exception: ``mem.*.peak_bytes`` counters (written by
        :class:`repro.obs.profile.MemTracker`) are *peaks*, so they
        merge by maximum — summing peak memory across processes would
        report a number no process ever used.
        """
        for name, value in state.get("counters", {}).items():
            if name.startswith("mem.") and name.endswith(".peak_bytes"):
                counter = self.counter(name)
                if value > counter.value:
                    counter.value = value
            else:
                self.counter(name).incr(value)
        for name, entry in state.get("timers", {}).items():
            self.timer(name).merge_state(entry)
        for name, entry in state.get("histograms", {}).items():
            self.histogram(name).merge_state(entry)


class _Capture:
    __slots__ = ("_registry", "_reset", "_prev")

    def __init__(self, registry: Registry, reset: bool):
        self._registry = registry
        self._reset = reset
        self._prev = False

    def __enter__(self) -> Registry:
        self._prev = self._registry.enabled
        if self._reset:
            self._registry.reset()
        self._registry.enabled = True
        return self._registry

    def __exit__(self, *exc) -> None:
        self._registry.enabled = self._prev


#: The process-local default registry every instrumented module reports
#: into.  Disabled until a caller (CLI ``--trace`` / ``--stats-out``,
#: the benchmark fixture, or user code) enables it.
OBS = Registry()


def trace(name: str) -> Span:
    """``with trace("phase2"): ...`` on the default registry."""
    return OBS.time(name)


def traced(name: str | F | None = None) -> Callable[[F], F] | F:
    """Decorator timing every call of a function under the default
    registry.

    Usable bare or with an explicit timer name::

        @traced
        def phase_one(...): ...

        @traced("waf.phase2")
        def waf_connectors(...): ...

    When the registry is disabled the wrapper is a single attribute
    check plus the delegated call — near-zero overhead.
    """

    def decorate(fn: F, label: str | None = None) -> F:
        timer_name = label or f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return fn(*args, **kwargs)
            # Via OBS.time (not a bare Span) so attached hooks — the
            # event stream, the memory tracker — see decorated calls.
            with OBS.time(timer_name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    if callable(name):
        return decorate(name)
    return lambda fn: decorate(fn, name)
