"""A deterministic load generator for the solve daemon.

Benchmarks and the CI smoke job need *reproducible* offered load: the
same request mix, in the same per-worker order, every run.
:func:`request_sequence` derives the mix from a seeded
:class:`random.Random` over an instance grid, and :func:`run_load`
partitions it round-robin across worker threads — worker *i* always
sends the same subsequence — so two runs against equivalent daemons
offer byte-identical traffic.

While driving load the generator also *audits* the daemon:

* every response is checked against the
  ``repro.serve/response/v1`` schema
  (:func:`~repro.serve.protocol.validate_response`);
* results are checked for the bit-identical cache contract — all
  responses for the same instance key must serialise to the same
  canonical JSON, cached or not.

* every ok solve response must carry a daemon-issued ``trace`` ID, and
  no two responses may share one — traces are issued per request, so a
  duplicate means the correlation chain is broken.

The report (``repro.serve/load-report/v1``) carries throughput,
client-side latency percentiles, the daemon's own ``stats`` snapshot
(cache hit rate), and any violations found.  Latency percentiles come
from per-worker :class:`~repro.obs.metrics.Histogram` objects merged
exactly in the parent (the same machinery ``--jobs N`` uses for
counters), and the merged histogram rides along in record form as
``latency_histogram``.  The ``serve-smoke`` CI job is built on it; the
workflow is documented in ``docs/serving.md``.
"""

from __future__ import annotations

import json
import random
import threading
from time import perf_counter

from ..obs.metrics import Histogram
from .client import ServeClient
from .protocol import solve_request, validate_response

__all__ = ["LOAD_REPORT_SCHEMA_ID", "request_sequence", "run_load"]

LOAD_REPORT_SCHEMA_ID = "repro.serve/load-report/v1"


def request_sequence(
    ns: list[int],
    seeds: list[int],
    requests: int,
    *,
    side: float | None = None,
    algorithm: str = "greedy",
    kernel: str = "auto",
    rng_seed: int = 0,
) -> list[dict]:
    """``requests`` solve requests drawn uniformly from the grid.

    The draw is a seeded :class:`random.Random`, so the sequence is a
    pure function of the arguments.  With ``requests`` larger than the
    grid (``len(ns) * len(seeds)`` distinct instances) the sequence
    necessarily repeats instances — that is the point: repeats are what
    exercise the cache and the single-flight path.
    """
    if not ns or not seeds:
        raise ValueError("ns and seeds must be non-empty")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    rng = random.Random(rng_seed)
    grid = [(n, seed) for n in ns for seed in seeds]
    sequence = []
    for i in range(requests):
        n, seed = grid[rng.randrange(len(grid))]
        sequence.append(
            solve_request(
                f"load-{i}",
                n=n,
                side=side,
                seed=seed,
                algorithm=algorithm,
                kernel=kernel,
            )
        )
    return sequence


class _Worker(threading.Thread):
    """One client connection driving its share of the sequence."""

    def __init__(self, address, requests: list[dict], timeout: float):
        super().__init__(daemon=True)
        self.address = address
        self.requests = requests
        self.timeout = timeout
        self.responses: list[dict] = []
        self.histogram = Histogram("load.latency")
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with ServeClient(self.address, timeout=self.timeout) as client:
                for request in self.requests:
                    t0 = perf_counter()
                    response = client.request(request)
                    self.histogram.observe(perf_counter() - t0)
                    self.responses.append(response)
        except BaseException as exc:  # noqa: BLE001 - reported in the report
            self.error = exc


def _result_key(request: dict) -> str:
    """Instance identity for the bit-identity audit (spec requests)."""
    instance = request["instance"]
    return (
        f"n={instance['n']};side={instance.get('side')!r};"
        f"seed={instance['seed']};"
        f"algo={request['algorithm']};kernel={request['kernel']}"
    )


def run_load(
    address: tuple[str, int] | str,
    sequence: list[dict],
    *,
    concurrency: int = 4,
    timeout: float = 120.0,
) -> dict:
    """Drive ``sequence`` at the daemon; return the audit/latency report.

    The sequence is partitioned round-robin over ``concurrency`` worker
    threads (one persistent connection each), so the per-worker request
    order is deterministic.  Latency is measured client-side,
    request-to-response.  Raises ``RuntimeError`` if any worker dies on
    a transport error; protocol and bit-identity violations do *not*
    raise — they land in the report for the caller to gate on.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    workers = [
        _Worker(address, sequence[i::concurrency], timeout)
        for i in range(min(concurrency, len(sequence)))
    ]
    t0 = perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = perf_counter() - t0
    failures = [w.error for w in workers if w.error is not None]
    if failures:
        raise RuntimeError(f"load worker failed: {failures[0]!r}")

    schema_violations: list[dict] = []
    identity_violations: list[dict] = []
    trace_violations: list[dict] = []
    canonical: dict[str, str] = {}  # instance key -> canonical result JSON
    seen_traces: dict[int, str] = {}  # trace -> request id that first used it
    responses = 0
    errors = 0
    cache_hits = 0
    for worker in workers:
        for request, response in zip(worker.requests, worker.responses):
            responses += 1
            violations = validate_response(response)
            if violations:
                schema_violations.append(
                    {"id": request["id"], "violations": violations}
                )
                continue
            if response["status"] == "error":
                errors += 1
                continue
            trace = response.get("trace")
            if trace is None:
                trace_violations.append(
                    {"id": request["id"], "reason": "missing trace"}
                )
            elif trace in seen_traces:
                trace_violations.append(
                    {
                        "id": request["id"],
                        "reason": f"trace {trace} already used by"
                        f" {seen_traces[trace]}",
                    }
                )
            else:
                seen_traces[trace] = request["id"]
            cache_hits += 1 if response["cached"] else 0
            key = _result_key(request)
            rendered = json.dumps(response["result"], sort_keys=True)
            previous = canonical.setdefault(key, rendered)
            if rendered != previous:
                identity_violations.append(
                    {"id": request["id"], "key": key}
                )

    merged = Histogram("load.latency")
    for worker in workers:
        merged.merge(worker.histogram)
    with ServeClient(address, timeout=timeout) as client:
        server_stats = client.stats().get("stats", {})
    cache = server_stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    clean = (
        not schema_violations
        and not identity_violations
        and not trace_violations
        and not errors
    )
    return {
        "schema": LOAD_REPORT_SCHEMA_ID,
        "requests": responses,
        "concurrency": len(workers),
        "elapsed_seconds": elapsed,
        "requests_per_second": responses / elapsed if elapsed > 0 else 0.0,
        "errors": errors,
        "cache_hits_observed": cache_hits,
        "latency_seconds": {
            "count": merged.count,
            "mean": merged.mean,
            "p50": merged.percentile(50),
            "p90": merged.percentile(90),
            "p95": merged.percentile(95),
            "p99": merged.percentile(99),
            "max": merged.max if merged.max is not None else 0.0,
        },
        "latency_histogram": merged.to_record(),
        "server": {
            "stats": server_stats,
            "cache_hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        },
        "schema_violations": schema_violations,
        "identity_violations": identity_violations,
        "trace_violations": trace_violations,
        "ok": clean,
    }
