"""Shared machinery of the repository benchmark.

Everything here is benchmark-side: percentiles from raw samples, the
span tracer that wraps the program's public functions during a traced
run, the garbage-collector monitor, backbone digests, the Corollary 7
certificate, peak RSS, and the result record every workload returns.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS_FILE = BENCH_DIR / "digests.json"

#: Set-ups per untraced run; ``setup_s`` is their median, so one set-up
#: slowed by the host does not move it.
SETUP_REPEATS = 9


# -- statistics ---------------------------------------------------------


def percentile(samples: list[float], pct: int) -> float:
    """Percentile of raw samples (never a histogram bucket), interpolated
    between the two nearest ranks so that a run with a handful of
    operations reports a blend of samples rather than whichever one
    lands on the rank."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


#: Time of one pass of :func:`_probe_pass` at the reference host speed
#: (a 2-vCPU Linux VM running Python 3.11, at its faster settings).
REFERENCE_PASS_S = 0.004
PROBE_PASSES = 5


def _probe_pass() -> float:
    """A fixed piece of pure-Python work of the kinds the program does
    most (dict and set building, lookups, a sort); returns its time."""
    t0 = perf_counter()
    table = {}
    for i in range(40_000):
        table[i] = i * 3
    total = 0
    for i in range(0, 40_000, 3):
        total += table[i]
    total += len(set(range(0, 40_000, 7)))
    total += sorted(table.values(), reverse=True)[0]
    return perf_counter() - t0


class HostSpeed:
    """Host-speed normalisation of the end-to-end times.

    The CPU speed of a shared host drifts by a fifth and more over tens
    of seconds, and a run's times drift with it.  A probe -- on each of
    ``cpus`` in turn (default: every CPU this process may use), the
    fastest of a few passes of a fixed piece of benchmark-side Python
    work, averaged over the CPUs -- runs before the first timed segment
    and after each one; :meth:`factor` gives the segment
    ``REFERENCE_PASS_S`` over the mean of the probes on either side of
    it, and the segment's times are scaled by it.  The program never runs
    during a probe, so a change to the program moves the scaled times
    exactly as it moves the raw ones; only the host's speed is divided
    out.  The scaled times are seconds at the reference host speed.
    """

    def __init__(self, cpus=None) -> None:
        self.cpus = sorted(cpus if cpus is not None else os.sched_getaffinity(0))
        self.last = self.probe()
        self.factors: list[float] = []

    def probe(self) -> float:
        home = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(min(_probe_pass() for _ in range(PROBE_PASSES)))
        finally:
            os.sched_setaffinity(0, home)
        return statistics.fmean(times)

    def factor(self) -> float:
        """Scale for the segment since the previous call (or creation)."""
        now = self.probe()
        scale = REFERENCE_PASS_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(scale)
        return scale

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor()

    def note(self) -> str:
        f = sorted(self.factors)
        return (f"times scaled to the reference host speed by factors "
                f"{f[0]:.3f}..{f[-1]:.3f} (median {statistics.median(f):.3f}) "
                f"over {len(f)} segments")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for
    children (daemon, sweep workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- correctness ---------------------------------------------------------


def _plain(node):
    """A JSON-ready form of a node label (Point -> [x, y])."""
    return [node.x, node.y] if hasattr(node, "x") else node


def backbone_digest(dominators, connectors) -> str:
    """Digest of a backbone: phase-1 dominators and phase-2 connectors,
    each in the order the algorithm chose them."""
    payload = json.dumps(
        [[_plain(v) for v in dominators], [_plain(v) for v in connectors]]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def summary_digest(summary: dict) -> str:
    """Digest of a solve summary (serve result / sweep cell), which is
    deterministic per instance under the bit-identity contract."""
    payload = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cert_ratio(cds_size: int, mis_size: int) -> float:
    """|CDS| / max(1, ceil(3(|I|-1)/11)): the Corollary 7 certificate."""
    from repro.cds.bounds import gamma_c_lower_bound_from_alpha

    return cds_size / gamma_c_lower_bound_from_alpha(max(1, mis_size))


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


def pick(pool: list[int], seed: int) -> int:
    """The input seed a workload seed selects from a committed pool.
    Seeds congruent modulo the pool size share an input."""
    return pool[seed % len(pool)]


# -- tracing -------------------------------------------------------------

#: Deployment generation and its UDG builds, spanned in traced runs.
GENERATOR_PATCHES = [
    ("repro.graphs.generators", "random_connected_udg", "graphs.generate"),
    ("repro.graphs.generators", "largest_component_udg", "graphs.generate"),
    ("repro.graphs.generators", "uniform_points", "graphs.generate"),
    ("repro.graphs.generators", "unit_disk_graph", "graphs.udg_build"),
    ("repro.graphs.generators", "is_connected", "graphs.is_connected"),
]


class Tracer:
    """Spans recorded around calls into the program's public functions.

    ``span(name)`` times a block; ``patched(targets)`` rebinds module
    attributes to timing wrappers so the program's own call sites are
    spanned without changing what runs.  A span nested inside an open
    span of the same name is not counted twice.  ``top`` sums the spans
    opened while no other span was open (the top-level layer spans).
    """

    def __init__(self) -> None:
        self.active = False
        self.totals: dict[str, float] = {}
        self.top = 0.0
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.active or name in self._stack:
            yield
            return
        self._stack.append(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            seconds = perf_counter() - t0
            self._stack.pop()
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            if not self._stack:
                self.top += seconds

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def _wrapper(self, fn, name: str):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    @contextmanager
    def patched(self, targets):
        """Rebind ``(module, attribute, span name)`` targets for the
        duration of the block; ``attribute`` may be ``Class.method``."""
        saved = []
        try:
            for module_name, path, name in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class GCMonitor:
    """Garbage-collector pauses and collections, via ``gc.callbacks``.

    Only collections the interpreter triggers while ``active`` count;
    the benchmark's own ``gc.collect()`` between operations does not.
    """

    def __init__(self) -> None:
        self.active = False
        self.pause = 0.0
        self.collections = 0
        self._t0: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        elif self._t0 is not None:
            if self.active:
                self.pause += perf_counter() - self._t0
                self.collections += 1
            self._t0 = None

    def __enter__(self) -> "GCMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def quiet_collect(monitor: GCMonitor | None = None) -> None:
    """Collect garbage between operations, outside every measurement."""
    active = monitor.active if monitor is not None else False
    if monitor is not None:
        monitor.active = False
    gc.collect()
    if monitor is not None:
        monitor.active = active


def in_rounds(names, op, monitor: GCMonitor | None = None, *,
              seconds: float | None = None, rounds: int | None = None,
              host: HostSpeed | None = None) -> list[float]:
    """Run rounds until ``seconds`` have passed or ``rounds`` rounds are
    done; one round calls ``op(name)`` for each name in turn and is one
    operation.  ``op`` returns the latency of its call, or None when it
    failed.  A round's latency is the sum of its calls' (the collections
    between them excluded), scaled by ``host`` when given; a round with a
    failed call has none.  Timing whole rounds keeps the samples of a run
    from falling into one group per name, between which a percentile
    would jump."""
    latencies: list[float] = []
    start = perf_counter()
    done = 0
    while True:
        calls = []
        for name in names:
            quiet_collect(monitor)
            calls.append(op(name))
        scale = host.factor() if host is not None else 1.0
        if None not in calls:
            latencies.append(sum(calls) * scale)
        done += 1
        if rounds is not None and done >= rounds:
            return latencies
        if seconds is not None and perf_counter() - start >= seconds:
            return latencies


# -- results -------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def end_to_end(outcome: Outcome, setups: list[float], latencies: list[float],
               wall: float, certs: dict, host: HostSpeed) -> None:
    """Fill the end-to-end metrics from per-operation samples, each
    scaled by ``host`` (as are ``setups`` and ``wall``).  latency_p90_s
    and latency_p99_s are printed but not in BENCHMARK.json: only
    serve-mixed has the thousand samples a 99th percentile needs."""
    n = len(latencies)
    outcome.metrics.update(
        setup_s=statistics.median(setups),
        throughput_ops_s=n / wall,
        latency_p50_s=percentile(latencies, 50),
        latency_p90_s=percentile(latencies, 90),
        latency_p99_s=percentile(latencies, 99),
        failed_ratio=outcome.failed / max(1, outcome.attempted),
        peak_rss_mb=peak_rss_mb(),
        cert_ratio=statistics.fmean(certs.values()),
    )
    for pct in (50, 90, 99):
        beyond = sum(1 for x in latencies if x > outcome.metrics[f"latency_p{pct}_s"])
        outcome.notes.append(
            f"latency_p{pct}_s from {n} per-operation samples ({beyond} beyond it)"
        )
    outcome.notes.append(
        f"setup_s is the median of {len(setups)} setups; "
        f"cert_ratio is the mean over {len(certs)} solved instances"
    )
    outcome.notes.append(host.note())


def trace_layers(outcome: Outcome, tracer: Tracer, monitor: GCMonitor,
                 counters: dict, traced_wall: float, untraced_wall: float,
                 ops: int) -> None:
    """Fill the layer metrics every workload shares."""
    residual = traced_wall - tracer.top
    outcome.metrics.update(
        {
            "ops_traced": ops,
            "traced_wall_s": traced_wall,
            "residual_s": residual,
            "residual_share": residual / traced_wall if traced_wall else 0.0,
            "obs.tracing_overhead_s": traced_wall - untraced_wall,
            "runtime.gc_pause_s": monitor.pause,
            "runtime.gc_collections": monitor.collections,
        }
    )
    for name, value in counters.items():
        outcome.metrics[name] = value
    for name, seconds in tracer.totals.items():
        outcome.metrics[f"{name}_s"] = seconds
