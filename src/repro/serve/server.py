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
  this process at ``jobs=1``, else on the daemon's persistent worker
  set of ``jobs`` solver processes.
* **Failure containment** (:func:`solve_batch`): ``run_cells`` puts a
  failing cell's :class:`~repro.reliability.failures.CellFailure` in
  that cell's slot, so a bad request gets its own structured error
  (exception type, message, item repr, batch index) while every
  batchmate is solved exactly once and answers normally.
* **Metrics** (:attr:`SolveServer.metrics`): the daemon's own
  always-on :class:`~repro.obs.core.Registry` — request/batch
  counters, the ``serve.batch.solve`` timer, the wall/queue/solve
  latency histograms (the wall one is exported a second time as the
  ``serve.request`` timer) and every solved cell's solver counters.  The ``stats`` op renders it live
  (:meth:`SolveServer.stats_payload`), the ``--metrics-port``
  Prometheus exposition and the ``--metrics-out`` snapshot stream
  (:mod:`repro.obs.expose`) read a merged copy
  (:meth:`SolveServer.metrics_registry`), and at drain the daemon
  folds it into the :data:`repro.obs.OBS` registry so ``--trace`` /
  ``--stats-out`` / ``--events-out`` work exactly as on the other CLI
  modes.
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
from dataclasses import dataclass
from time import perf_counter
from typing import Mapping

from ..durations import check_duration
from ..obs import OBS
from ..obs.core import Registry
from ..obs.metrics import Histogram
from ..reliability.runner import WorkerSet, run_cells
from .cache import ResultCache, request_fingerprint
from .protocol import (
    RESPONSE_SCHEMA_ID,
    normalize_request,
)

__all__ = [
    "ServeConfig",
    "SolveServer",
    "ServerThread",
    "serve_cell",
    "solve_batch",
    "run_server",
]

#: Queue sentinel: drain is complete once the batcher consumes it.
_STOP = object()

#: Imported by each daemon worker as it starts, before any request.
_WORKER_PRELOAD = ("repro.serve.server", "repro.experiments.parallel",
                   "repro.baselines", "repro.distributed.solvers")

# -- the solve worker (module-level: picklable for the workers) -------


def serve_cell(request: Mapping) -> dict:
    """Solve one normalized request; deterministic, picklable summary.

    Spec instances delegate to the sweep runner's
    :func:`~repro.experiments.parallel.solve_cell`, so a served cell's
    summary — sizes *and* operation counters — is byte-identical to the
    same cell solved by ``python -m repro sweep``.  Inline edge lists
    build an integer-labeled graph (:func:`_edge_graph`) and produce
    the analogous summary.

    Raises:
        ValueError: for a disconnected edge instance (the normalizer
            already refused what no solver takes), surfaced to the
            client as a structured error response; also for an edge
            list the normalizer would not have passed on
            (:func:`_edge_graph`).
    """
    from ..experiments.parallel import SweepCell, solve_cell, solve_summary
    from ..graphs.traversal import is_connected

    instance = request["instance"]
    algorithm, kernel = request["algorithm"], request["kernel"]
    if instance["kind"] == "spec":
        cell = SweepCell(
            n=instance["n"], side=instance["side"], seed=instance["seed"]
        )
        return solve_cell(cell, algorithm=algorithm, kernel=kernel)
    graph = _edge_graph(instance["nodes"], instance["edges"])
    if not is_connected(graph):
        raise ValueError(
            "edge instance is disconnected (a CDS requires a connected "
            "graph); submit one component per request"
        )
    head = {"nodes": len(graph), "edges": graph.edge_count()}
    return solve_summary(head, graph, algorithm, kernel=kernel)


def _edge_graph(nodes: int, edges: list):
    """The graph over ``range(nodes)`` that adding ``edges`` in order
    with ``Graph.add_edge`` builds, made in bulk from its CSR rows.

    ``edges`` is in the normalizer's form: pairs ``u < v`` of ids below
    ``nodes``, sorted, no repeats.

    Raises:
        ValueError: for a self-loop (``add_edge``'s error), and for any
            other edge list not in that form.
    """
    import numpy as np

    from ..graphs.indexed import _bulk_graph, _neighbor_rows

    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    left, right = pairs[:, 0], pairs[:, 1]
    loops = np.flatnonzero(left == right)
    if loops.size:
        raise ValueError(f"self-loop at {int(left[loops[0]])!r} is not allowed")
    key = left * nodes + right
    if pairs.size and not (
        left.min() >= 0 and right.max() < nodes
        and (left < right).all() and (key[1:] > key[:-1]).all()
    ):
        raise ValueError(
            "edge list is not normalized: expected sorted, distinct pairs "
            f"u < v of node ids below {nodes} (see normalize_request)"
        )
    return _bulk_graph(range(nodes), *_neighbor_rows(left, right, nodes))


def solve_batch(requests: list[dict], pool: WorkerSet | None = None) -> list[dict]:
    """Solve one batch; failures become data.

    Returns one outcome per request, in order: ``{"ok": summary}`` or
    ``{"error": {"type", "message", "item", "index"}}``, where ``item``
    is the request's repr and ``index`` its batch position.  ``pool``
    (the daemon's worker set at ``jobs > 1``) runs the batch across
    processes; ``None`` solves it in this process.  Either way a
    failing request fails alone, even one that kills its worker, and
    every batchmate solves once.
    """
    # Keys are batch positions: with ``cache: false`` two identical
    # requests can share a batch, so neither repr nor fingerprint is
    # unique.
    positions = iter(range(len(requests)))
    report = run_cells(
        serve_cell, requests, pool=pool, isolate=pool is not None,
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
        check_duration("batch_window", self.batch_window, zero_ok=True)
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")


#: Counters every daemon reports from boot, at 0 until first recorded
#: (the per-op ``serve.requests.<op>`` counters appear with their op).
_BOOT_COUNTERS = (
    "serve.requests", "serve.errors", "serve.cells.solved",
    "serve.cells.failed", "serve.coalesced", "serve.batches",
    "serve.batch.size", "serve.batch.max",
)

#: The latency histograms the ``stats`` op summarises, sampled or not:
#: wall is solve-request arrival -> response, queue is enqueue -> batch
#: start, solve is the batch solve duration charged to each of its cells.
_LATENCIES = ("serve.latency.wall", "serve.latency.queue",
              "serve.latency.solve")


# -- the daemon -------------------------------------------------------


class SolveServer:
    """The asyncio daemon.  Use :func:`run_server` (blocking) or
    :class:`ServerThread` (tests, load generation) rather than driving
    this class directly; for manual control call :meth:`start`, then
    :meth:`serve_until_shutdown` inside a running event loop."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.cache = ResultCache(self.config.cache_size)
        # The daemon's own registry, never the shared OBS: an inline
        # (jobs=1) cell captures and resets OBS around its solve, which
        # would wipe anything the loop recorded there meanwhile.
        self.metrics = Registry(enabled=True)
        for name in _BOOT_COUNTERS:
            self.metrics.counter(name)
        self.address: tuple[str, int] | str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._batcher_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self._pool = None
        self._writers: set = set()
        self._next_trace = 0   # last issued request trace ID
        self._batch_seq = 0    # last issued batch sequence number

    # -- lifecycle ----------------------------------------------------

    def _start_pool(self) -> None:
        # Started once, from the forkserver: plain fork() out of this
        # threaded process deadlocks intermittently (the child snapshots
        # locks mid-held); the forkserver forks from a single thread.
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = "forkserver" if "forkserver" in methods else "spawn"
        self._pool = WorkerSet(self.config.jobs, context, _WORKER_PRELOAD)
        self._pool.start()

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
        """Everything this daemon has measured so far, in
        :meth:`~repro.obs.core.Registry.merge_state` shape: its
        :attr:`metrics` plus the cache's tallies — the exact state
        :meth:`emit_obs` folds into ``OBS`` at drain, built on demand
        mid-run.  Plain reads under the GIL, so safe to call from the
        exporter thread while serving.
        """
        state = self.metrics.export_state()
        wall = state.get("histograms", {}).get("serve.latency.wall")
        if wall is not None:
            # The serve.request timer is the wall histogram under its
            # span name: one accumulator, two renderings.
            state["timers"]["serve.request"] = wall
        state["counters"].update({
            "serve.cache.hits": self.cache.hits,
            "serve.cache.misses": self.cache.misses,
            "serve.cache.evictions": self.cache.evictions,
        })
        return state

    def metrics_registry(self) -> Registry:
        """A fresh :class:`~repro.obs.core.Registry` holding
        :meth:`metrics_state` — what the Prometheus exposition and the
        snapshot stream render.  A new registry per call: the live
        metrics keep mutating, and handing out merge copies keeps the
        shared ``OBS`` untouched until drain."""
        registry = Registry()
        registry.merge_state(self.metrics_state())
        return registry

    def stats_payload(self) -> dict:
        """The ``stats`` op's totals, rendered from :attr:`metrics` (the
        CLI's drain line and run-record ``results`` read it too)."""
        counters = self.metrics.counters()
        histograms = self.metrics.histograms()
        summaries = {
            name: histograms.get(name, Histogram(name)).summary()
            for name in _LATENCIES
        }
        wall = summaries["serve.latency.wall"]
        per_op = "serve.requests."
        return {
            "requests": counters["serve.requests"],
            "ops": {
                name[len(per_op):]: value
                for name, value in counters.items()
                if name.startswith(per_op)
            },
            "errors": counters["serve.errors"],
            "cells_solved": counters["serve.cells.solved"],
            "cells_failed": counters["serve.cells.failed"],
            "coalesced": counters["serve.coalesced"],
            "batches": counters["serve.batches"],
            "batch_cells": counters["serve.batch.size"],
            "batch_max": counters["serve.batch.max"],
            "cache": self.cache.stats(),
            "latency": {
                key: wall[key] for key in ("count", "mean", "p50", "p99", "max")
            },
            "histograms": summaries,
        }

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
            self.metrics.incr("serve.errors")
            return self._error(None, "ProtocolError", f"invalid JSON: {exc}")
        request_id = obj.get("id") if isinstance(obj, Mapping) else None
        if not isinstance(request_id, str):
            request_id = None
        try:
            request = normalize_request(obj)
        except ValueError as exc:
            self.metrics.incr("serve.errors")
            return self._error(request_id, "ProtocolError", str(exc))
        self.metrics.incr("serve.requests")
        self.metrics.incr(f"serve.requests.{request['op']}")
        if request["op"] == "ping":
            return self._ok(request_id, op="ping")
        if request["op"] == "stats":
            # Read live from the registry the drain-time RunRecord will
            # freeze, so mid-run stats are accurate while requests are
            # still in flight.
            payload = self.stats_payload()
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
                self.metrics.observe("serve.latency.wall", elapsed)
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
            self.metrics.incr("serve.coalesced")
            coalesced = True
        outcome, batch_size, batch_seq = await future
        elapsed = perf_counter() - t0
        self.metrics.observe("serve.latency.wall", elapsed)
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
        self.metrics.incr("serve.errors")
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
            self.metrics.observe("serve.latency.queue", max(0.0, t0 - t_enqueue))
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
        self._record_batch(len(batch), seconds, failed)
        for (request, fingerprint, future, _, _), outcome in zip(batch, outcomes):
            if fingerprint is not None:
                self._inflight.pop(fingerprint, None)
                if "ok" in outcome:
                    self.cache.put(fingerprint, outcome["ok"])
            if "ok" in outcome:
                self.metrics.merge_state(
                    {"counters": outcome["ok"].get("counters", {})}
                )
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

    def _record_batch(self, size: int, seconds: float, failed: int) -> None:
        metrics = self.metrics
        metrics.incr("serve.batches")
        metrics.incr("serve.batch.size", size)
        peak = metrics.counter("serve.batch.max")
        peak.value = max(peak.value, size)
        metrics.incr("serve.cells.solved", size - failed)
        metrics.incr("serve.cells.failed", failed)
        metrics.timer("serve.batch.solve").observe(seconds)
        # Each cell in the batch waited for the whole batch solve, so
        # the batch duration is every member's solve time.
        solve = metrics.histogram("serve.latency.solve")
        for _ in range(size):
            solve.observe(seconds)

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


async def _serve(server: SolveServer, on_ready=None) -> None:
    """Start ``server``, call ``on_ready(server)`` once its socket is
    bound, and serve until drained: the one daemon loop behind
    :func:`run_server` and :class:`ServerThread`."""
    await server.start()
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


def run_server(config: ServeConfig | None = None, *, on_ready=None) -> SolveServer:
    """Blocking entry point: start a daemon, serve until drained.

    ``on_ready(server)`` fires once the socket is bound (the CLI prints
    the address there).  SIGINT/SIGTERM trigger the same graceful drain
    as the ``shutdown`` op (handlers install on the main thread only).
    Returns the server so callers can read final stats and call
    :meth:`SolveServer.emit_obs`.
    """
    server = SolveServer(config)
    asyncio.run(_serve(server, on_ready))
    return server


class ServerThread:
    """A daemon on a background thread — tests and load generation.

    ``start()`` returns once the socket is bound; ``stop()`` requests
    the graceful drain and joins the thread.  The live server object is
    exposed as :attr:`server` (metrics/cache inspection is safe — plain
    attribute reads under the GIL).
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.server = SolveServer(self.config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(_serve(self.server, self._on_ready))

    def _on_ready(self, server: SolveServer) -> None:
        self._loop = asyncio.get_running_loop()
        self._ready.set()

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
