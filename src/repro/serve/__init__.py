"""Solver-as-a-service: the long-lived batching daemon.

``python -m repro serve`` keeps one warm process answering CDS solve
requests over newline-delimited JSON (TCP or Unix socket), instead of
paying the CLI's import/build/solve cost per invocation.  Repeat
requests hit an in-process LRU cache keyed by the reliability
subsystem's checkpoint fingerprints — a cached response is
bit-identical to a cold solve — and concurrent misses coalesce into
batches that run through the sweep machinery in
:mod:`repro.experiments.parallel`.

Layout:

* :mod:`~repro.serve.protocol` — the ``repro.serve/request/v1`` /
  ``response/v1`` wire schemas with in-repo validators.
* :mod:`~repro.serve.cache` — fingerprinting (shared with the sweep
  checkpoint ledger) and the LRU result cache.
* :mod:`~repro.serve.server` — the asyncio daemon: batcher,
  single-flight, graceful drain, always-on metrics.
* :mod:`~repro.serve.client` — a small blocking client for scripts,
  tests and ``python -m repro serve-client``.
* :mod:`~repro.serve.loadgen` — the deterministic load generator
  behind ``serve-client --loadgen``.

Protocol reference and ops runbook: ``docs/serving.md``; where the
daemon sits in the stack: ``docs/architecture.md``.
"""

from .cache import ResultCache, request_fingerprint, request_key, request_label
from .client import ServeClient, parse_address
from .loadgen import LOAD_REPORT_SCHEMA_ID, request_sequence, run_load
from .protocol import (
    REQUEST_OPS,
    REQUEST_SCHEMA_ID,
    RESPONSE_SCHEMA_ID,
    control_request,
    normalize_request,
    solve_request,
    validate_request,
    validate_response,
)
from .server import (
    ServeConfig,
    ServerThread,
    SolveServer,
    run_server,
    serve_cell,
    solve_batch,
)

__all__ = [
    "REQUEST_SCHEMA_ID",
    "RESPONSE_SCHEMA_ID",
    "REQUEST_OPS",
    "LOAD_REPORT_SCHEMA_ID",
    "solve_request",
    "control_request",
    "validate_request",
    "normalize_request",
    "validate_response",
    "request_key",
    "request_label",
    "request_fingerprint",
    "ResultCache",
    "ServeConfig",
    "SolveServer",
    "ServerThread",
    "serve_cell",
    "solve_batch",
    "run_server",
    "ServeClient",
    "parse_address",
    "request_sequence",
    "run_load",
]
