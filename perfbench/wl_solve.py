"""Workload ``solve-large``: the ``python -m repro solve`` pipeline at n = 2 * 10^4.

Each solve is what one CLI solve does, in process and in order:
``io.load_points`` -> ``unit_disk_graph`` -> connectivity check -> solver
(auto kernel) -> ``CDSResult.is_valid`` -> ``io.save_result``.  One
operation solves one seeded uniform deployment at the udg100000 fixture
density (n = 2 * 10^4 on side 62.6) with ``greedy`` and then with ``waf``.
At this size a run holds a dozen operations; at n = 10^5 it would hold
four, whose median moves by a quarter from run to run.

The deployment seed is drawn from a committed pool of seeds whose
deployment is connected, so the CLI's largest-component fallback (a
second UDG build) never fires and every seed measures the same path.
"""

from __future__ import annotations

from time import perf_counter

from common import (
    GENERATOR_PATCHES,
    SETUP_REPEATS,
    GCMonitor,
    HostSpeed,
    Outcome,
    Tracer,
    backbone_digest,
    cert_ratio,
    end_to_end,
    in_rounds,
    load_digests,
    pick,
    quiet_collect,
    trace_layers,
)

N = 20_000
SIDE = 62.6
ALGORITHMS = ("greedy", "waf")

#: Functions the solvers call, spanned in the traced run: the public
#: phases plus greedy's default-root search (waf's runs inside its
#: phase 1).  The solver entry points themselves are not spanned: what
#: they do outside these calls (node-set unions) is left in the residual.
PATCHES = [
    ("repro.cds.greedy_connector", "build_kernel", "graphs.build_kernel"),
    ("repro.cds.greedy_connector", "_smallest_node", "mis.root"),
    ("repro.cds.greedy_connector", "first_fit_mis_nodes", "mis.first_fit"),
    ("repro.cds.greedy_connector", "greedy_connectors", "cds.greedy_connectors"),
    ("repro.cds.greedy_connector", "CDSResult", "cds.result"),
    ("repro.cds.waf", "build_kernel", "graphs.build_kernel"),
    ("repro.cds.waf", "first_fit_mis", "mis.first_fit"),
    ("repro.cds.waf", "waf_connectors", "cds.waf_connectors"),
    ("repro.cds.waf", "CDSResult", "cds.result"),
]


def _setup(deploy_seed: int, work, reps: int, tracer: Tracer,
           host: HostSpeed | None = None):
    """Generate and write the deployment ``reps`` times, each into a new
    file from a collected heap; returns the last file and the times
    (scaled by ``host`` when given)."""
    from repro.graphs.generators import uniform_points
    from repro.io import save_points

    times, csv = [], ""
    for i in range(reps):
        quiet_collect()
        csv = str(work / f"deploy-{i}.csv")
        t0 = perf_counter()
        with tracer.span("graphs.generate"):
            points = uniform_points(N, SIDE, deploy_seed)
        with tracer.span("io.save_points"):
            save_points(points, csv)
        seconds = perf_counter() - t0
        times.append(host.scaled(seconds) if host is not None else seconds)
        del points
    return csv, times


def _solve(csv: str, algorithm: str, out: str, tracer: Tracer):
    from repro.cds import greedy_connector_cds, waf_cds
    from repro.graphs.traversal import is_connected
    from repro.graphs.udg import unit_disk_graph
    from repro.io import load_points, save_result

    solver = {"greedy": greedy_connector_cds, "waf": waf_cds}[algorithm]
    with tracer.span("io.load_points"):
        points = load_points(csv)
    with tracer.span("graphs.udg_build"):
        graph = unit_disk_graph(points)
    with tracer.span("graphs.is_connected"):
        connected = is_connected(graph)
    if not connected:
        raise ValueError("pool deployment is not connected")
    result = solver(graph, kernel="auto")
    with tracer.span("cds.validate"):
        valid = result.is_valid(graph)
    with tracer.span("io.save_result"):
        save_result(result, out)
    # Freeing the 10^5-node graph is part of every solve; span it so it
    # is not mistaken for unattributed solver time.
    with tracer.span("runtime.free_graph"):
        del graph, points
    return result, valid


def _checked(csv, out, expected, outcome, certs, tracer):
    """One timed, checked solve per call, for :func:`common.in_rounds`."""

    def op(algorithm):
        outcome.attempted += 1
        t0 = perf_counter()
        try:
            result, valid = _solve(csv, algorithm, out, tracer)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            outcome.fail(f"{algorithm}: {exc!r}")
            return None
        latency = perf_counter() - t0
        digest = backbone_digest(result.dominators, result.connectors)
        if not valid:
            outcome.fail(f"{algorithm}: invalid CDS")
        elif digest != expected[algorithm]:
            outcome.fail(f"{algorithm}: digest {digest} != {expected[algorithm]}")
        certs[algorithm] = cert_ratio(result.size, len(result.dominators))
        return latency

    return op


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    table = load_digests()["solve-large"]
    pool = table["pool"]
    deploy_seed = pick(pool, seed)
    expected = {a: table[a][str(deploy_seed)] for a in ALGORITHMS}
    out = str(work / "result.json")
    outcome = Outcome()
    outcome.notes.append(f"deployment seed {deploy_seed} (n={N}, side={SIDE})")
    tracer, certs = Tracer(), {}
    if not trace:
        host = HostSpeed()
        csv, setups = _setup(deploy_seed, work, SETUP_REPEATS, tracer, host)
        op = _checked(csv, out, expected, outcome, certs, tracer)
        latencies = in_rounds(ALGORITHMS, op, seconds=seconds, host=host)
        end_to_end(outcome, setups, latencies, sum(latencies), certs, host)
        return outcome

    from repro.obs import OBS

    tracer.active = True
    with tracer.patched(GENERATOR_PATCHES):
        csv, _ = _setup(deploy_seed, work, 1, tracer)
    tracer.active = False
    op = _checked(csv, out, expected, outcome, certs, tracer)
    untraced = in_rounds(ALGORITHMS, op, seconds=seconds / 2)
    tracer.top = 0.0
    with GCMonitor() as monitor, tracer.patched(PATCHES), OBS.capture() as reg:
        tracer.active = monitor.active = True
        traced = in_rounds(ALGORITHMS, op, monitor, rounds=len(untraced))
        tracer.active = monitor.active = False
        counters = reg.counters()
    trace_layers(outcome, tracer, monitor, counters, sum(traced),
                 sum(untraced), len(traced))
    return outcome
