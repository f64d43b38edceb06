"""The solve daemon: asyncio NDJSON server with batching and caching.

``python -m repro serve`` keeps one long-lived process warm — imports
done, kernels selected, results cached — so the request path stops
paying the per-invocation rebuild cost of the CLI.  The moving parts:

* **Connections** (:meth:`SolveServer._handle`): newline-delimited JSON
  over TCP or a Unix socket.  Every request line gets exactly one
  response line, in order; malformed or invalid lines produce
  structured ``status: "error"`` responses and the connection *stays
  open*.
* **Cache** (:class:`~repro.serve.cache.ResultCache`): solve requests
  are fingerprinted with the checkpoint subsystem's
  :func:`~repro.reliability.checkpoint.grid_fingerprint`; a previously
  solved cell is answered immediately, bit-identical to the cold solve.
* **Single-flight**: concurrent identical requests coalesce onto one
  in-flight solve — the followers await the leader's future instead of
  enqueueing duplicates.
* **Batching** (:meth:`SolveServer._batcher`): cache misses enter a
  queue; the batcher collects everything arriving within
  ``batch_window`` seconds (up to ``batch_max``) and solves the batch
  in a worker thread through :func:`repro.reliability.run_cells` — in
  this process at ``jobs=1``, else on the daemon's persistent pool of
  ``jobs`` solver processes.
* **Failure containment** (:func:`solve_batch`): ``run_cells`` puts a
  failing cell's :class:`~repro.reliability.failures.CellFailure` in
  that cell's slot, so a bad request gets its own structured error
  (exception type, message, item repr, batch index) while every
  batchmate is solved exactly once and answers normally.
* **Metrics** (:class:`ServerStats`): always-on request/cache/batch
  tallies and wall/queue/solve/batch-time
  :class:`~repro.obs.metrics.Histogram` distributions.  The ``stats``
  op folds a *live* copy (:meth:`SolveServer.metrics_registry`) so
  mid-run percentiles are accurate, and the same fold feeds the
  ``--metrics-port`` Prometheus exposition and the ``--metrics-out``
  snapshot stream (:mod:`repro.obs.expose`); at drain the daemon folds
  everything into the :data:`repro.obs.OBS` registry (``serve.*``
  counters, timers and histograms plus the merged solver counters) so
  ``--trace`` / ``--stats-out`` / ``--events-out`` work exactly as on
  the other CLI modes.
* **Trace IDs**: every solve request gets a monotonically increasing
  integer ``trace``, carried through the batcher and the single-flight
  future and echoed in the response.  Each completed request emits a
  ``serve.request`` obs *note* with its trace, and each batch a
  ``serve.batch`` note listing the traces it solved — so one request
  correlates with its batch solve in ``--events-out`` even when
  coalesced or batched with others.

Protocol reference, cache semantics and the ops runbook:
``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping

from ..obs import OBS
from ..obs.core import Registry
from ..obs.metrics import Histogram
from ..reliability.runner import run_cells
from .cache import ResultCache, request_fingerprint
from .protocol import (
    RESPONSE_SCHEMA_ID,
    normalize_request,
)

__all__ = [
    "ServeConfig",
    "ServerStats",
    "SolveServer",
    "ServerThread",
    "serve_cell",
    "solve_batch",
    "run_server",
]

#: Queue sentinel: drain is complete once the batcher consumes it.
_STOP = object()

# -- the solve worker (module-level: picklable for the pool) ---------


def serve_cell(request: Mapping) -> dict:
    """Solve one normalized request; deterministic, picklable summary.

    Spec instances delegate to the sweep runner's
    :func:`~repro.experiments.parallel.solve_cell`, so a served cell's
    summary — sizes *and* operation counters — is byte-identical to the
    same cell solved by ``python -m repro sweep``.  Inline edge lists
    build an integer-labeled graph and produce the analogous summary.

    Raises:
        ValueError: for an unknown algorithm, a kernel pin the
            algorithm does not accept, or a disconnected edge instance
            — all surfaced to the client as structured error responses.
    """
    from ..experiments.parallel import SweepCell, solve_cell
    from ..solvers import solver_registry

    instance = request["instance"]
    algorithm = request["algorithm"]
    if algorithm not in solver_registry():
        # Pre-check so both instance kinds report an unknown algorithm
        # the same way (solve_cell would surface a bare KeyError).
        raise ValueError(f"unknown algorithm {algorithm!r}")
    kernel = None if request["kernel"] == "auto" else request["kernel"]
    if instance["kind"] == "spec":
        cell = SweepCell(
            n=instance["n"], side=instance["side"], seed=instance["seed"]
        )
        return solve_cell(cell, algorithm=algorithm, kernel=kernel)
    return _solve_edges(instance, algorithm, kernel)


def _solve_edges(instance: Mapping, algorithm: str, kernel: str | None) -> dict:
    from ..graphs.graph import Graph
    from ..graphs.traversal import is_connected
    from ..solvers import bind_solver

    solver, kwargs = bind_solver(algorithm, kernel=kernel)
    graph: Graph = Graph()
    for node in range(instance["nodes"]):
        graph.add_node(node)
    for u, v in instance["edges"]:
        graph.add_edge(u, v)
    if not is_connected(graph):
        raise ValueError(
            "edge instance is disconnected (a CDS requires a connected "
            "graph); submit one component per request"
        )
    with OBS.capture() as reg:
        result = solver(graph, **kwargs)
        counters = reg.counters()
    summary = {
        "nodes": len(graph),
        "edges": graph.edge_count(),
        "algorithm": result.algorithm,
        "cds_size": result.size,
        "dominators": len(result.dominators),
        "connectors": len(result.connectors),
        "counters": counters,
    }
    if kernel is not None:
        summary["kernel"] = kernel
    return summary


def _warm_worker(_: int) -> None:
    """Pool warm-up task: pay the child-side import cost up front."""
    from ..experiments.parallel import solve_cell  # noqa: F401


def solve_batch(requests: list[dict], pool=None) -> list[dict]:
    """Solve one batch; failures become data.

    Returns one outcome per request, in order: ``{"ok": summary}`` or
    ``{"error": {"type", "message", "item", "index"}}``, where ``item``
    is the request's repr and ``index`` its batch position.  ``pool``
    (the daemon's persistent pool at ``jobs > 1``) maps the batch
    across processes; ``None`` solves it in this process.  Either way
    a failing request fails alone and every batchmate solves once.
    """
    # Keys are batch positions: with ``cache: false`` two identical
    # requests can share a batch, so neither repr nor fingerprint is
    # unique.
    positions = iter(range(len(requests)))
    report = run_cells(
        serve_cell, requests, pool=pool, isolate=False,
        key_fn=lambda _request: str(next(positions)),
    )
    return [
        {"ok": o.result} if o.ok else {
            "error": {
                "type": o.failure.error_type,
                "message": o.failure.message,
                "item": repr(o.item),
                "index": o.index,
            }
        }
        for o in report.outcomes
    ]


# -- configuration and metrics ----------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """One daemon's knobs (defaults match ``python -m repro serve``)."""

    host: str = "127.0.0.1"
    port: int = 0
    socket_path: str | None = None  # Unix socket; overrides host/port
    jobs: int = 1                   # solver processes per batch
    batch_window: float = 0.005     # seconds the batcher waits to coalesce
    batch_max: int = 32             # hard batch-size cap
    cache_size: int = 1024          # LRU entries; 0 disables caching
    max_line_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")


@dataclass
class ServerStats:
    """Always-on serving metrics (independent of the obs enable flag)."""

    requests: int = 0
    ops: dict = field(default_factory=dict)        # op -> count
    errors: int = 0
    cells_solved: int = 0
    cells_failed: int = 0
    coalesced: int = 0
    batches: int = 0
    batch_cells: int = 0
    batch_max: int = 0
    # Live latency distributions (docs/observability.md §7): wall is
    # solve-request arrival -> response, queue is enqueue -> batch
    # start, solve is the batch solve duration charged to each of its
    # cells, batch_solve is that duration once per batch.
    wall: Histogram = field(
        default_factory=lambda: Histogram("serve.latency.wall")
    )
    queue_wait: Histogram = field(
        default_factory=lambda: Histogram("serve.latency.queue")
    )
    solve: Histogram = field(
        default_factory=lambda: Histogram("serve.latency.solve")
    )
    batch_solve: Histogram = field(
        default_factory=lambda: Histogram("serve.batch.solve")
    )

    def record_request(self, op: str) -> None:
        self.requests += 1
        self.ops[op] = self.ops.get(op, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self.wall.observe(seconds)

    def record_queue(self, seconds: float) -> None:
        self.queue_wait.observe(seconds)

    def record_batch(self, size: int, seconds: float, failed: int) -> None:
        self.batches += 1
        self.batch_cells += size
        self.batch_max = max(self.batch_max, size)
        self.cells_solved += size - failed
        self.cells_failed += failed
        self.batch_solve.observe(seconds)
        # Each cell in the batch waited for the whole batch solve, so
        # the batch duration is every member's solve time.
        for _ in range(size):
            self.solve.observe(seconds)

    def snapshot(self, cache: ResultCache) -> dict:
        """The JSON payload of the ``stats`` op."""
        wall = self.wall.summary()
        return {
            "requests": self.requests,
            "ops": dict(sorted(self.ops.items())),
            "errors": self.errors,
            "cells_solved": self.cells_solved,
            "cells_failed": self.cells_failed,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "batch_cells": self.batch_cells,
            "batch_max": self.batch_max,
            "cache": cache.stats(),
            "latency": {
                key: wall[key] for key in ("count", "mean", "p50", "p99", "max")
            },
            "histograms": {
                h.name: h.summary()
                for h in (self.wall, self.queue_wait, self.solve)
            },
        }

    def obs_state(self, cache: ResultCache) -> dict:
        """Counters/timers/histograms in
        :meth:`repro.obs.Registry.merge_state` shape.

        Folded into ``OBS`` once, at drain — the async loop itself never
        increments registry counters while serving, because the inline
        (``jobs=1``) solve path captures the registry around each cell
        and would wipe concurrent increments.  ``ServerStats`` is the
        durable store; the registry gets the totals.  Live consumers
        (the ``stats`` op, the exporter, the snapshot stream) fold the
        same state into a *fresh* registry via
        :meth:`SolveServer.metrics_registry` instead of touching
        ``OBS`` mid-run.
        """
        counters = {
            "serve.requests": self.requests,
            "serve.errors": self.errors,
            "serve.cells.solved": self.cells_solved,
            "serve.cells.failed": self.cells_failed,
            "serve.coalesced": self.coalesced,
            "serve.batches": self.batches,
            "serve.batch.size": self.batch_cells,
            "serve.batch.max": self.batch_max,
            "serve.cache.hits": cache.hits,
            "serve.cache.misses": cache.misses,
            "serve.cache.evictions": cache.evictions,
        }
        for op, count in self.ops.items():
            counters[f"serve.requests.{op}"] = count
        # The serve.request timer is the wall histogram under its
        # span name: one accumulator, two renderings.
        timers = {
            name: h.state()
            for name, h in (
                ("serve.request", self.wall),
                ("serve.batch.solve", self.batch_solve),
            )
            if h.count
        }
        state = {"counters": counters, "timers": timers}
        histograms = {
            h.name: h.state()
            for h in (self.wall, self.queue_wait, self.solve)
            if h.count
        }
        if histograms:
            state["histograms"] = histograms
        return state


# -- the daemon -------------------------------------------------------


class SolveServer:
    """The asyncio daemon.  Use :func:`run_server` (blocking) or
    :class:`ServerThread` (tests, load generation) rather than driving
    this class directly; for manual control call :meth:`start`, then
    :meth:`serve_until_shutdown` inside a running event loop."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.cache = ResultCache(self.config.cache_size)
        self.stats = ServerStats()
        self.address: tuple[str, int] | str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._batcher_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self._merged_solver_counters: dict[str, float] = {}
        self._pool = None
        self._writers: set = set()
        self._next_trace = 0   # last issued request trace ID
        self._batch_seq = 0    # last issued batch sequence number

    # -- lifecycle ----------------------------------------------------

    def _start_pool(self) -> None:
        # A persistent pool, created once: a per-batch Pool would use
        # plain fork(), which deadlocks intermittently out of a
        # threaded process (the child snapshots locks mid-held).  The
        # forkserver context forks from a single-threaded helper
        # instead, and reusing one pool also drops the per-batch setup
        # cost.  Warm-up maps one trivial task per worker so the
        # children pay their import cost before the first real request.
        import multiprocessing

        try:
            context = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform without forkserver
            context = multiprocessing.get_context("spawn")
        self._pool = context.Pool(processes=self.config.jobs)
        self._pool.map(_warm_worker, range(self.config.jobs), chunksize=1)

    async def start(self) -> None:
        if self.config.jobs > 1:
            await asyncio.get_running_loop().run_in_executor(
                None, self._start_pool
            )
        self._queue = asyncio.Queue()
        self._batcher_task = asyncio.create_task(self._batcher())
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle,
                path=self.config.socket_path,
                limit=self.config.max_line_bytes,
            )
            self.address = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_line_bytes,
            )
            sock = self._server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, threadsafe via loop)."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until the ``shutdown`` op (or a signal) fires, then
        drain: stop accepting, finish queued batches, answer in-flight
        requests, stop the batcher."""
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        await self._queue.put(_STOP)
        await self._batcher_task
        # Handlers awaiting futures resolve on the next loop ticks;
        # give them a moment to write their final responses.
        for _ in range(50):
            if not self._inflight:
                break
            await asyncio.sleep(0.01)
        # Close lingering connections (clients idling in their read
        # loop) so every handler exits through its normal EOF path
        # before the event loop tears down, instead of being cancelled
        # mid-readline at asyncio.run() cleanup.
        for writer in list(self._writers):
            writer.close()
        for _ in range(50):
            if not self._writers:
                break
            await asyncio.sleep(0.01)
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def emit_obs(self) -> None:
        """Fold the serving metrics into the shared ``OBS`` registry.

        Called once after the loop exits (the CLI drain path): the
        ``serve.*`` counters/timers plus the solver counters merged
        across every cell this daemon solved — all deterministic per
        request sequence, so ``--stats-out`` records are comparable
        run-to-run.
        """
        OBS.merge_state(self.metrics_state())

    def metrics_state(self) -> dict:
        """A live fold of everything this daemon has measured so far:
        the ``serve.*`` counters/timers/histograms plus the solver
        counters merged across every solved cell — the exact state
        :meth:`emit_obs` folds into ``OBS`` at drain, built on demand
        mid-run.  Plain attribute reads under the GIL, so safe to call
        from the exporter thread or the ``stats`` op while serving.
        """
        state = self.stats.obs_state(self.cache)
        if self._merged_solver_counters:
            counters = state["counters"]
            for name, value in dict(self._merged_solver_counters).items():
                counters[name] = counters.get(name, 0) + value
        return state

    def metrics_registry(self) -> Registry:
        """A fresh :class:`~repro.obs.core.Registry` holding
        :meth:`metrics_state` — what the Prometheus exposition and the
        snapshot stream render.  A new registry per call: the live
        stats keep mutating, and handing out merge copies keeps the
        shared ``OBS`` untouched until drain."""
        registry = Registry()
        registry.merge_state(self.metrics_state())
        return registry

    # -- connection handling ------------------------------------------

    async def _handle(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while not reader.at_eof():
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # over-long line or dropped peer
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                response = await self._dispatch(stripped)
                writer.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode()
                )
                await writer.drain()
        except ConnectionError:  # pragma: no cover - peer vanished
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._writers.discard(writer)

    async def _dispatch(self, line: bytes) -> dict:
        try:
            obj = json.loads(line)
        except ValueError as exc:
            self.stats.errors += 1
            return self._error(None, "ProtocolError", f"invalid JSON: {exc}")
        request_id = obj.get("id") if isinstance(obj, Mapping) else None
        if not isinstance(request_id, str):
            request_id = None
        try:
            request = normalize_request(obj)
        except ValueError as exc:
            self.stats.errors += 1
            return self._error(request_id, "ProtocolError", str(exc))
        self.stats.record_request(request["op"])
        if request["op"] == "ping":
            return self._ok(request_id, op="ping")
        if request["op"] == "stats":
            # A live fold (satellite of PR 6's drain-only merge): the
            # histogram percentiles and counters come from the same
            # state the drain-time RunRecord will freeze, so mid-run
            # stats are accurate while requests are still in flight.
            payload = self.stats.snapshot(self.cache)
            payload["inflight"] = len(self._inflight)
            payload["queued"] = self._queue.qsize() if self._queue else 0
            return self._ok(request_id, op="stats", stats=payload)
        if request["op"] == "shutdown":
            self.request_shutdown()
            return self._ok(request_id, op="shutdown", draining=True)
        return await self._solve(request)

    async def _solve(self, request: dict) -> dict:
        t0 = perf_counter()
        request_id = request["id"]
        # One trace ID per solve request, issued in arrival order on
        # the loop thread: the correlation key tying this request's
        # response, its serve.request note and the serve.batch note of
        # whichever batch solved it.
        self._next_trace += 1
        trace = self._next_trace
        fingerprint = request_fingerprint(request)
        use_cache = request["cache"] and self.config.cache_size > 0
        if use_cache:
            hit = self.cache.get(fingerprint)
            if hit is not None:
                elapsed = perf_counter() - t0
                self.stats.record_latency(elapsed)
                self._note(request_id, fingerprint, trace=trace, cached=True,
                           batch=0, elapsed=elapsed)
                return self._ok(
                    request_id,
                    result=hit,
                    fingerprint=fingerprint,
                    cached=True,
                    batch=0,
                    elapsed=elapsed,
                    trace=trace,
                )
        coalesced = False
        future = self._inflight.get(fingerprint) if use_cache else None
        if future is None:
            future = asyncio.get_running_loop().create_future()
            if use_cache:
                self._inflight[fingerprint] = future
            await self._queue.put((request, fingerprint if use_cache else None,
                                   future, trace, t0))
        else:
            self.stats.coalesced += 1
            coalesced = True
        outcome, batch_size, batch_seq = await future
        elapsed = perf_counter() - t0
        self.stats.record_latency(elapsed)
        if "ok" in outcome:
            self._note(request_id, fingerprint, trace=trace, cached=False,
                       batch=batch_size, elapsed=elapsed, batch_seq=batch_seq,
                       coalesced=coalesced)
            response = self._ok(
                request_id,
                result=outcome["ok"],
                fingerprint=fingerprint,
                cached=False,
                batch=batch_size,
                elapsed=elapsed,
                trace=trace,
            )
            if coalesced:
                response["coalesced"] = True
            return response
        self.stats.errors += 1
        return {
            "schema": RESPONSE_SCHEMA_ID,
            "id": request_id,
            "status": "error",
            "error": dict(outcome["error"]),
            "trace": trace,
        }

    # -- batching -----------------------------------------------------

    async def _batcher(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _STOP:
                return
            batch = [item]
            deadline = loop.time() + self.config.batch_window
            while len(batch) < self.config.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
                if item is _STOP:
                    stopping = True
                    break
                batch.append(item)
            await self._run_batch(loop, batch)

    async def _run_batch(self, loop, batch) -> None:
        requests = [item[0] for item in batch]
        self._batch_seq += 1
        batch_seq = self._batch_seq
        t0 = perf_counter()
        # Queue time: enqueue -> batch start, per leader request (a
        # coalesced follower never enqueued, so it has no queue wait).
        for _, _, _, _, t_enqueue in batch:
            self.stats.record_queue(max(0.0, t0 - t_enqueue))
        try:
            outcomes = await loop.run_in_executor(
                None, solve_batch, requests, self._pool
            )
        except Exception as exc:  # pragma: no cover - defensive
            outcomes = [
                {"error": {"type": type(exc).__name__, "message": str(exc),
                           "item": repr(req), "index": i}}
                for i, req in enumerate(requests)
            ]
        seconds = perf_counter() - t0
        failed = sum(1 for outcome in outcomes if "error" in outcome)
        self.stats.record_batch(len(batch), seconds, failed)
        for (request, fingerprint, future, _, _), outcome in zip(batch, outcomes):
            if fingerprint is not None:
                self._inflight.pop(fingerprint, None)
                if "ok" in outcome:
                    self.cache.put(fingerprint, outcome["ok"])
            if "ok" in outcome:
                self._merge_solver_counters(outcome["ok"].get("counters", {}))
            if not future.done():
                future.set_result((outcome, len(batch), batch_seq))
        # The batch-side half of the trace correlation: one note
        # listing every trace this batch solved.
        OBS.note(
            "serve.batch",
            {
                "seq": batch_seq,
                "traces": [item[3] for item in batch],
                "cells": len(batch),
                "seconds": seconds,
                "failed": failed,
            },
        )

    def _merge_solver_counters(self, counters: Mapping) -> None:
        merged = self._merged_solver_counters
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value

    # -- response shaping ---------------------------------------------

    def _ok(self, request_id: str | None, **fields) -> dict:
        response = {
            "schema": RESPONSE_SCHEMA_ID,
            "id": request_id,
            "status": "ok",
        }
        response.update(fields)
        return response

    def _error(self, request_id: str | None, error_type: str,
               message: str) -> dict:
        return {
            "schema": RESPONSE_SCHEMA_ID,
            "id": request_id,
            "status": "error",
            "error": {"type": error_type, "message": message},
        }

    def _note(self, request_id: str | None, fingerprint: str, *,
              trace: int, cached: bool, batch: int, elapsed: float,
              batch_seq: int | None = None, coalesced: bool = False) -> None:
        # Per-request tracing for --events-out: a point event per
        # completed solve.  Notes never touch counters, so they are
        # safe to emit from the loop while a batch solves inline.
        # ``trace``/``batch_seq`` join this note to the matching
        # ``serve.batch`` note (which lists the traces it solved).
        data = {
            "id": request_id,
            "trace": trace,
            "fingerprint": fingerprint,
            "cached": cached,
            "batch": batch,
            "elapsed": elapsed,
        }
        if batch_seq is not None:
            data["batch_seq"] = batch_seq
        if coalesced:
            data["coalesced"] = True
        OBS.note("serve.request", data)


# -- entry points -----------------------------------------------------


async def _serve_main(server: SolveServer, ready=None) -> None:
    await server.start()
    if ready is not None:
        ready.set()
    await server.serve_until_shutdown()


def run_server(
    config: ServeConfig | None = None,
    *,
    on_ready=None,
    install_signal_handlers: bool = True,
) -> SolveServer:
    """Blocking entry point: start a daemon, serve until drained.

    ``on_ready(server)`` fires once the socket is bound (the CLI prints
    the address there).  SIGINT/SIGTERM trigger the same graceful drain
    as the ``shutdown`` op when handlers are installed (main thread
    only).  Returns the server so callers can read final stats and
    call :meth:`SolveServer.emit_obs`.
    """
    server = SolveServer(config)

    async def main() -> None:
        await server.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, server.request_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    break  # not the main thread / unsupported platform
        if on_ready is not None:
            on_ready(server)
        await server.serve_until_shutdown()

    asyncio.run(main())
    return server


class ServerThread:
    """A daemon on a background thread — tests and load generation.

    ``start()`` returns once the socket is bound; ``stop()`` requests
    the graceful drain and joins the thread.  The live server object is
    exposed as :attr:`server` (stats/cache inspection is safe — plain
    attribute reads under the GIL).
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.server = SolveServer(self.config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(
                _serve_main(self.server, _ThreadReady(self._ready))
            )
        finally:
            self._loop.close()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread did not become ready")
        return self

    @property
    def address(self):
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class _ThreadReady:
    """Adapt a ``threading.Event`` to the asyncio ``ready.set()`` call."""

    __slots__ = ("_event",)

    def __init__(self, event: threading.Event):
        self._event = event

    def set(self) -> None:
        self._event.set()
