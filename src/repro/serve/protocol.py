"""The wire protocol: ``repro.serve/request/v1`` / ``response/v1``.

The daemon speaks newline-delimited JSON: one request object per line
in, one response object per line out, always in request order per
connection.  Both shapes are versioned and validated in-repo, exactly
like the :mod:`repro.obs.record` RunRecord — no third-party jsonschema
dependency.

A **request** names an operation (``op``) and, for solves, the
instance plus algorithm/kernel selection::

    {"schema": "repro.serve/request/v1", "id": "r-1", "op": "solve",
     "instance": {"kind": "spec", "n": 60, "side": 6.2, "seed": 2},
     "algorithm": "greedy", "kernel": "auto", "cache": true}

    {"schema": "repro.serve/request/v1", "id": "r-2", "op": "solve",
     "instance": {"kind": "edges", "nodes": 4,
                  "edges": [[0, 1], [1, 2], [2, 3]]},
     "algorithm": "waf"}

Control operations take no instance: ``{"op": "ping"}``,
``{"op": "stats"}``, ``{"op": "shutdown"}`` (plus ``schema`` and
``id``).

A **response** echoes the request ``id`` and carries exactly one of
``result`` (ok) or ``error`` (structured failure — the connection
stays open either way)::

    {"schema": "repro.serve/response/v1", "id": "r-1", "status": "ok",
     "cached": false, "batch": 3, "fingerprint": "ab12...",
     "elapsed": 0.0041,
     "result": {"n": 60, "side": 6.2, "seed": 2, "algorithm":
                "greedy-connector", "cds_size": 21, "dominators": 14,
                "connectors": 7, "counters": {...}}}

    {"schema": "repro.serve/response/v1", "id": "r-3",
     "status": "error",
     "error": {"type": "ValueError", "message": "...", "index": 0,
               "item": "..."}}

**Bit-identity contract:** the ``result`` object is deterministic per
(instance, algorithm, kernel) — a cached response's ``result`` is
byte-for-byte the JSON of a cold solve's (tested).  The transport
fields around it (``id``, ``cached``, ``coalesced``, ``batch``,
``elapsed``, and the per-request ``trace`` ID) describe *this*
exchange and are excluded from the guarantee.  See ``docs/serving.md``.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..solvers import check_solve

__all__ = [
    "REQUEST_SCHEMA_ID",
    "RESPONSE_SCHEMA_ID",
    "REQUEST_OPS",
    "solve_request",
    "control_request",
    "validate_request",
    "normalize_request",
    "validate_response",
]

#: Version tags; bump on breaking shape change.
REQUEST_SCHEMA_ID = "repro.serve/request/v1"
RESPONSE_SCHEMA_ID = "repro.serve/response/v1"

#: Operations a request may name.  ``solve`` is the workload; the
#: control ops support liveness probes, metrics scraping and graceful
#: drain (see the ops runbook in ``docs/serving.md``).
REQUEST_OPS = ("solve", "ping", "stats", "shutdown")

_INSTANCE_KINDS = ("spec", "edges")


# -- builders ---------------------------------------------------------


def solve_request(
    request_id: str,
    *,
    n: int | None = None,
    side: float | None = None,
    seed: int = 0,
    edges: list | None = None,
    nodes: int | None = None,
    algorithm: str = "greedy",
    kernel: str = "auto",
    cache: bool = True,
) -> dict:
    """Build a solve request — spec (``n=...``) or inline ``edges=...``."""
    if (n is None) == (edges is None):
        raise ValueError("give exactly one of n= (spec) or edges= (inline)")
    if n is not None:
        instance: dict = {"kind": "spec", "n": n, "seed": seed}
        if side is not None:
            instance["side"] = side
    else:
        if nodes is None:
            nodes = 1 + max((max(u, v) for u, v in edges), default=0)
        instance = {"kind": "edges", "nodes": nodes,
                    "edges": [list(e) for e in edges]}
    return {
        "schema": REQUEST_SCHEMA_ID,
        "id": request_id,
        "op": "solve",
        "instance": instance,
        "algorithm": algorithm,
        "kernel": kernel,
        "cache": cache,
    }


def control_request(request_id: str, op: str) -> dict:
    """Build a ``ping`` / ``stats`` / ``shutdown`` request."""
    if op not in REQUEST_OPS or op == "solve":
        raise ValueError(f"not a control op: {op!r}")
    return {"schema": REQUEST_SCHEMA_ID, "id": request_id, "op": op}


# -- request validation -----------------------------------------------


def _check_int(value: object, minimum: int | None = None) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, int)
        and (minimum is None or value >= minimum)
    )


def _check_number(value: object) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _validate_instance(instance: object, errors: list[str]) -> None:
    if not isinstance(instance, Mapping):
        errors.append("instance must be an object")
        return
    kind = instance.get("kind")
    if kind not in _INSTANCE_KINDS:
        errors.append(
            f"instance.kind must be one of {_INSTANCE_KINDS}, got {kind!r}"
        )
        return
    if kind == "spec":
        if not _check_int(instance.get("n"), 1):
            errors.append("instance.n must be an integer >= 1")
        if not _check_int(instance.get("seed")):
            errors.append("instance.seed must be an integer")
        side = instance.get("side")
        if side is not None and not (
            _check_number(side) and math.isfinite(side) and side > 0
        ):
            errors.append("instance.side must be a finite number > 0 (or omitted)")
        return
    nodes = instance.get("nodes")
    if not _check_int(nodes, 1):
        errors.append("instance.nodes must be an integer >= 1")
        nodes = None
    edges = instance.get("edges")
    if not isinstance(edges, list):
        errors.append("instance.edges must be a list of [u, v] pairs")
        return
    for i, edge in enumerate(edges):
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or not all(_check_int(v, 0) for v in edge)
        ):
            errors.append(
                f"instance.edges[{i}] must be a pair of node ids >= 0"
            )
            continue
        u, v = edge
        if u == v:
            errors.append(f"instance.edges[{i}] is a self-loop ({u})")
        if nodes is not None and (u >= nodes or v >= nodes):
            errors.append(
                f"instance.edges[{i}] names node >= nodes={nodes}"
            )


def validate_request(obj: object) -> list[str]:
    """Schema-check a parsed request; returns violations (empty = ok)."""
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return [f"request must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != REQUEST_SCHEMA_ID:
        errors.append(
            f"schema must be {REQUEST_SCHEMA_ID!r}, got {obj.get('schema')!r}"
        )
    request_id = obj.get("id")
    if not isinstance(request_id, str) or not request_id:
        errors.append("id must be a non-empty string")
    op = obj.get("op")
    if op not in REQUEST_OPS:
        errors.append(f"op must be one of {REQUEST_OPS}, got {op!r}")
        return errors
    if op != "solve":
        return errors
    _validate_instance(obj.get("instance"), errors)
    algorithm = obj.get("algorithm", "greedy")
    kernel = obj.get("kernel", "auto")
    if not isinstance(algorithm, str) or not isinstance(kernel, str):
        errors.append("algorithm and kernel must be strings")
    else:
        # The rule every entry point applies: refused here, a request
        # is never fingerprinted, cached or batched.
        try:
            check_solve(algorithm, kernel)
        except ValueError as exc:
            errors.append(str(exc))
    if not isinstance(obj.get("cache", True), bool):
        errors.append("cache must be a boolean")
    return errors


def normalize_request(obj: Mapping) -> dict:
    """Validate and canonicalise a request for fingerprinting/solving.

    Defaults are applied (``algorithm``/``kernel``/``cache``, the
    density-preserving ``side`` for spec instances), and inline edge
    lists are canonicalised — endpoints sorted within each edge, edges
    sorted and deduplicated — so two requests describing the same graph
    in different edge orders share one fingerprint (and therefore one
    cache entry).

    Raises:
        ValueError: listing every schema violation.
    """
    errors = validate_request(obj)
    if errors:
        raise ValueError("invalid request: " + "; ".join(errors))
    normalized: dict = {
        "schema": REQUEST_SCHEMA_ID,
        "id": obj["id"],
        "op": obj["op"],
    }
    if obj["op"] != "solve":
        return normalized
    instance = dict(obj["instance"])
    if instance["kind"] == "spec":
        if instance.get("side") is None:
            from ..experiments.instances import default_side

            instance["side"] = default_side(instance["n"])
        else:
            instance["side"] = float(instance["side"])
    else:
        instance["edges"] = sorted(
            {(min(u, v), max(u, v)) for u, v in instance["edges"]}
        )
        instance["edges"] = [list(e) for e in instance["edges"]]
    normalized["instance"] = instance
    normalized["algorithm"] = obj.get("algorithm", "greedy")
    normalized["kernel"] = obj.get("kernel", "auto")
    normalized["cache"] = obj.get("cache", True)
    return normalized


# -- response validation ----------------------------------------------


def validate_response(obj: object) -> list[str]:
    """Schema-check a parsed response; returns violations (empty = ok)."""
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return [f"response must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != RESPONSE_SCHEMA_ID:
        errors.append(
            f"schema must be {RESPONSE_SCHEMA_ID!r}, "
            f"got {obj.get('schema')!r}"
        )
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, str):
        errors.append("id must be a string or null (unparseable request)")
    status = obj.get("status")
    if status not in ("ok", "error"):
        errors.append(f"status must be 'ok' or 'error', got {status!r}")
        return errors
    trace = obj.get("trace")
    if trace is not None and (
        isinstance(trace, bool) or not isinstance(trace, int) or trace < 1
    ):
        errors.append("trace must be an integer >= 1 when present")
    if status == "error":
        error = obj.get("error")
        if not isinstance(error, Mapping):
            errors.append("error responses must carry an 'error' object")
        else:
            for key in ("type", "message"):
                if not isinstance(error.get(key), str):
                    errors.append(f"error.{key} must be a string")
        if "result" in obj:
            errors.append("error responses must not carry 'result'")
        return errors
    if "error" in obj:
        errors.append("ok responses must not carry 'error'")
    op = obj.get("op", "solve")
    if op != "solve":
        return errors
    result = obj.get("result")
    if not isinstance(result, Mapping):
        errors.append("ok solve responses must carry a 'result' object")
    else:
        for key in ("algorithm", "cds_size", "dominators", "connectors"):
            if key not in result:
                errors.append(f"result: missing {key!r}")
        if not isinstance(result.get("counters", {}), Mapping):
            errors.append("result.counters must be an object")
    if not isinstance(obj.get("fingerprint"), str):
        errors.append("ok solve responses must carry the 'fingerprint'")
    if not isinstance(obj.get("cached"), bool):
        errors.append("ok solve responses must carry boolean 'cached'")
    batch = obj.get("batch")
    if isinstance(batch, bool) or not isinstance(batch, int) or batch < 0:
        errors.append("batch must be an integer >= 0")
    elapsed = obj.get("elapsed")
    if not _check_number(elapsed) or elapsed < 0:
        errors.append("elapsed must be a number >= 0")
    return errors
