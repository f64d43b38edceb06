"""Workload ``serve-mixed``: the solve daemon under a skewed request mix.

``python -m repro serve --jobs 1`` runs as its own process on a
loopback TCP port; two client threads of this process drive it closed
loop (each sends its next request when the previous response arrives)
over one persistent connection each.  The seeded stream mixes spec
requests at n = 150 (side 8.0) and n = 1000 (side 18.0) for ``greedy``
and ``waf`` (nine in ten requests) with inline-edge requests of n = 150
graphs.  About one request in seven names an instance not requested
before; the rest repeat one and hit the daemon's cache.  At one in ten
the 90th latency percentile would sit on the hit/miss edge and jump
between the two distributions from run to run; at one in seven it lies
among the misses.  The n = 1000 requests are one in ten, so their
misses (the slowest class, 1.5% of requests) hold the 99th percentile
near their own middle rather than in their tail.  Every spec request
gives ``side`` explicitly: the default side at n = 150 (9.26) makes the
daemon's rejection sampler give up on about one seed in ten.

The daemon and the load generator are pinned to different CPUs, so
neither preempts the other's threads and every request crosses the
same boundary on every run.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from time import perf_counter

from common import (
    GENERATOR_PATCHES,
    GCMonitor,
    HostSpeed,
    Outcome,
    SRC,
    Tracer,
    cert_ratio,
    end_to_end,
    load_digests,
    percentile,
    quiet_collect,
    summary_digest,
    trace_layers,
)

#: (requests in every window of 20, kind, n, side, algorithm): the
#: instance classes of the mix.  Each window holds exactly these counts in
#: a seeded order, and each class names a new instance on exactly every
#: FRESH-th of its requests, so the composition -- which sets where the
#: latency percentiles fall -- is the same on every seed.
MIX = [
    (8, "spec", 150, 8.0, "greedy"),
    (8, "spec", 150, 8.0, "waf"),
    (1, "spec", 1000, 18.0, "greedy"),
    (1, "spec", 1000, 18.0, "waf"),
    (1, "edges", 150, 8.0, "greedy"),
    (1, "edges", 150, 8.0, "waf"),
]
FRESH = 0.15
CONNECTIONS = 2
REQUESTS_PER_SECOND = 600  # stream length per measured second (about 2x headroom)
DAEMON_SETUPS = 5  # fewer than common.SETUP_REPEATS: each boots a daemon
WINDOW_S = 2.0  # load between two host-speed probes
SOLVER_COUNTERS = ("mis.nodes_scanned", "mis.selected", "gain.evaluations",
                   "waf.coverage_evaluations", "greedy.connectors_chosen")


def class_key(kind: str, n: int, side: float, algorithm: str) -> str:
    """Name of an instance class of the mix (a key of the digest table)."""
    return f"{kind}:n={n};side={side!r};algo={algorithm}"


def instance_body(kind: str, n: int, side: float, seed: int) -> dict:
    """Request fields naming one instance.  An inline instance is the
    largest component of a uniform deployment, relabeled to integer ids."""
    if kind == "spec":
        return {"n": n, "side": side, "seed": seed}
    from repro.experiments.instances import int_labeled
    from repro.graphs.generators import largest_component_udg, uniform_points

    _, graph = largest_component_udg(uniform_points(n, side, seed))
    graph = int_labeled(graph)
    return {"edges": [list(e) for e in graph.edges()], "nodes": len(graph)}


def request_stream(seed: int, instances: dict, length: int) -> list[tuple]:
    """The seeded request stream: ``((class key, seed), request)`` pairs,
    drawing new instances from each class's committed seeds and repeats
    from the instances the class has named so far.  Repeats share one
    request object; the sender gives each its own id."""
    from repro.serve.protocol import solve_request

    rng = random.Random(seed)
    orders = []
    for _, kind, n, side, algorithm in MIX:
        order = sorted(int(s) for s in instances[class_key(kind, n, side, algorithm)])
        rng.shuffle(order)
        orders.append(order)
    window = [c for c, (slots, *_) in enumerate(MIX) for _ in range(slots)]
    count = [0] * len(MIX)
    seen: list[list] = [[] for _ in MIX]
    stream: list[tuple] = []
    while len(stream) < length:
        rng.shuffle(window)
        for c in window:
            _, kind, n, side, algorithm = MIX[c]
            k = count[c]
            count[c] += 1
            if seen[c] and int((k + 1) * FRESH) == int(k * FRESH):
                stream.append(rng.choice(seen[c]))
                continue
            s = orders[c][len(seen[c]) % len(orders[c])]
            body = instance_body(kind, n, side, s)
            seen[c].append(((class_key(kind, n, side, algorithm), str(s)),
                            solve_request("", algorithm=algorithm, **body)))
            stream.append(seen[c][-1])
    return stream[:length]


def cpu_split():
    """(daemon CPU, load-generator CPU) when two CPUs are available."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


class Daemon:
    """``python -m repro serve`` in its own process, on a free port,
    pinned to the first CPU of :func:`cpu_split`."""

    def __init__(self, work, stats_out=None):
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--jobs", "1"]
        if stats_out is not None:
            cmd += ["--stats-out", str(stats_out)]
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
        self.log = open(work / "daemon.log", "ab")
        self.proc = subprocess.Popen(cmd, cwd=work, env=env,
                                     stdout=subprocess.PIPE, stderr=self.log)
        split = cpu_split()
        if split is not None:
            os.sched_setaffinity(self.proc.pid, {split[0]})
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, _, port = line.split()[2].rpartition(":")
        self.address = (host, int(port))
        from repro.serve.client import ServeClient

        with ServeClient(self.address) as client:
            client.ping()

    def stats(self) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient(self.address) as client:
            return client.stats()["stats"]

    def close(self) -> str:
        """Drain the daemon and return its final output."""
        from repro.serve.client import ServeClient

        tail = ""
        try:
            if self.proc.poll() is None:
                with ServeClient(self.address) as client:
                    client.shutdown()
                tail = self.proc.communicate(timeout=60)[0].decode()
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
        return tail


def _setup(seed, instances, length, work, reps, host: HostSpeed | None = None):
    times, stream = [], None
    for i in range(reps):
        stream = None
        quiet_collect()
        t0 = perf_counter()
        stream = request_stream(seed, instances, length)
        daemon = Daemon(work)
        seconds = perf_counter() - t0
        times.append(host.scaled(seconds) if host is not None else seconds)
        if i < reps - 1:
            daemon.close()
    return stream, daemon, times


def _drive_windows(address, stream, seconds, host: HostSpeed):
    """:func:`_drive` for ``seconds`` in windows of ``WINDOW_S``, with a
    host-speed probe between windows (the connections idle meanwhile).
    Returns the triples, the scaled latencies, the scaled wall time and
    the errors."""
    results = [[] for _ in range(CONNECTIONS)]
    latencies, wall, errors, elapsed = [], 0.0, [], 0.0
    while elapsed < seconds and not errors:
        part, part_wall, errors = _drive(
            address, stream, seconds=min(WINDOW_S, seconds - elapsed),
            offsets=[len(r) for r in results])
        scale = host.factor()
        for mine, new in zip(results, part):
            mine += new
            latencies += [lat * scale for _, _, lat in new]
        wall += part_wall * scale
        elapsed += part_wall
    return results, latencies, wall, errors


def _drive(address, stream, *, seconds=None, counts=None, offsets=None):
    """Closed loop over ``CONNECTIONS`` connections; connection i sends
    ``stream[i::CONNECTIONS]`` in order, from its ``offsets[i]``-th
    request on.  Returns, per connection, the ``(key, response,
    latency)`` triples it completed."""
    from repro.serve.client import ServeClient

    results = [[] for _ in range(CONNECTIONS)]
    errors = []
    deadline = perf_counter() + seconds if seconds is not None else None

    def worker(i):
        share = stream[i::CONNECTIONS]
        limit = counts[i] if counts is not None else None
        try:
            with ServeClient(address, timeout=120) as client:
                j = offsets[i] if offsets is not None else 0
                while True:
                    if limit is not None and j >= limit:
                        return
                    if deadline is not None and perf_counter() >= deadline:
                        return
                    key, request = share[j % len(share)]
                    request = dict(request, id=f"c{i}-{j}")
                    t0 = perf_counter()
                    response = client.request(request)
                    results[i].append((key, response, perf_counter() - t0))
                    j += 1
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CONNECTIONS)]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, perf_counter() - t0, errors


def _audit(results, errors, expected, outcome, certs) -> None:
    """Schema, status, bit-identity, trace-uniqueness and digest checks."""
    from repro.serve.protocol import validate_response

    for error in errors:
        outcome.fail(f"connection died: {error}")
    canonical: dict[str, str] = {}
    traces: set = set()
    for triples in results:
        for key, response, _ in triples:
            outcome.attempted += 1
            violations = validate_response(response)
            if violations:
                outcome.fail(f"{key}: {violations}")
                continue
            if response["status"] != "ok":
                outcome.fail(f"{key}: {response['error']}")
                continue
            trace = response.get("trace")
            if trace is None or trace in traces:
                outcome.fail(f"{key}: missing or reused trace {trace}")
            traces.add(trace)
            result = response["result"]
            rendered = json.dumps(result, sort_keys=True)
            if canonical.setdefault(key, rendered) != rendered:
                outcome.fail(f"{key}: cached result differs from cold solve")
            digest = summary_digest(result)
            if digest != expected[key[0]][key[1]]:
                outcome.fail(f"{key}: digest {digest} != {expected[key[0]][key[1]]}")
            certs[key] = cert_ratio(result["cds_size"], result["dominators"])


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, {split[1]})
    table = load_digests()["serve-mixed"]
    expected = table["instances"]
    length = int(seconds * REQUESTS_PER_SECOND) + 1000
    outcome = Outcome()
    certs: dict = {}
    if not trace:
        host = HostSpeed(split)
        stream, daemon, setups = _setup(seed, expected, length, work,
                                        DAEMON_SETUPS, host)
        try:
            results, latencies, wall, errors = _drive_windows(
                daemon.address, stream, seconds, host)
            stats = daemon.stats()
        finally:
            tail = daemon.close()
        _audit(results, errors, expected, outcome, certs)
        if " 0 error(s)" not in tail:
            outcome.problems.append(f"daemon drain: {tail.strip()!r}")
        end_to_end(outcome, setups, latencies, wall, certs, host)
        cache = stats["cache"]
        outcome.notes.append(
            f"{stats['cells_solved']} cold solves, cache hits "
            f"{cache['hits']} of {cache['hits'] + cache['misses']} lookups"
        )
        return outcome
    return _traced(seed, seconds, work, expected, length, outcome, certs)


def _traced(seed, seconds, work, expected, length, outcome, certs):
    from repro.serve.cache import request_fingerprint
    from repro.serve.protocol import normalize_request

    tracer = Tracer()
    tracer.active = True
    with tracer.patched(GENERATOR_PATCHES):
        stream, daemon, _ = _setup(seed, expected, length, work, 1)
    tracer.active = False
    try:
        untraced, _, errors = _drive(daemon.address, stream, seconds=seconds / 2)
    finally:
        daemon.close()
    _audit(untraced, errors, expected, outcome, certs)
    counts = [len(triples) for triples in untraced]
    record = work / "serve-record.json"
    with GCMonitor() as monitor:
        daemon = Daemon(work, stats_out=record)
        try:
            monitor.active = True
            traced, _, errors = _drive(daemon.address, stream, counts=counts)
            monitor.active = False
            stats = daemon.stats()
        finally:
            daemon.close()
    _audit(traced, errors, expected, outcome, certs)
    counters = json.loads(record.read_text())["counters"]

    sent = [request for i, n in enumerate(counts)
            for _, request in stream[i::CONNECTIONS][:n]]
    tracer.active = True
    for j, request in enumerate(sent):
        request = dict(request, id=f"n-{j}")
        with tracer.span("serve.normalize"):
            request_fingerprint(normalize_request(request))
    tracer.active = False

    triples = [t for per in traced for t in per]
    hits = [lat for _, r, lat in triples if r.get("cached")]
    misses = [lat for _, r, lat in triples if not r.get("cached")]
    client_sum = sum(lat for _, _, lat in triples)
    untraced_sum = sum(lat for per in untraced for _, _, lat in per)
    # The daemon-side handling time of every solve request is the one
    # top-level span a client can attribute; the rest of each round
    # trip (framing, sockets, client JSON) is the residual.
    tracer.top = stats["latency"]["mean"] * stats["latency"]["count"]
    cache = stats["cache"]
    hist = stats["histograms"]
    layer = {
        "serve.hit_latency_p50_s": percentile(hits, 50) if hits else 0.0,
        "serve.miss_latency_p50_s": percentile(misses, 50) if misses else 0.0,
        "serve.queue_p99_s": hist["serve.latency.queue"]["p99"],
        "serve.solve_p50_s": hist["serve.latency.solve"]["p50"],
        "serve.batches": stats["batches"],
        "serve.batch_size_mean": stats["batch_cells"] / max(1, stats["batches"]),
        "serve.coalesced": stats["coalesced"],
        "serve.cells_solved": stats["cells_solved"],
        "serve.cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
    }
    layer.update({name: counters.get(name, 0) for name in SOLVER_COUNTERS})
    trace_layers(outcome, tracer, monitor, layer, client_sum, untraced_sum,
                 len(triples))
    outcome.notes.append(
        f"{len(hits)} hits / {len(misses)} misses in the traced pass; "
        "serve.queue_p99_s and serve.solve_p50_s are the daemon's "
        "histogram percentiles (bucket resolution)"
    )
    return outcome
