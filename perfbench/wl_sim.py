"""Workload ``sim-rounds``: the distributed pipelines on the round engine.

One operation runs ``distributed_waf_cds`` at the udg10000 fixture
density (n = 3000 on side 31.2) and then ``distributed_greedy_cds`` at
the udg1000 one (n = 500 on side 12.7), both on the default batched
engine over int-labeled topologies.  WAF-dist loads the engine per
message (a few hundred long rounds); greedy-dist loads it per round
(about 4000 short ones), so an engine change that trades one cost for
the other shows here.  At these sizes a run holds a dozen operations;
at n = 10^4 and 10^3 it would hold three.

The fixture seed comes from a committed pool of seeds whose fixtures
connect on the sampler's first draw and whose greedy-dist run takes
about the same number of rounds, so seeds differ in their inputs but
not in their cost.
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

#: name -> (pipeline, n, side)
PIPELINES = {
    "waf-dist": ("distributed_waf_cds", 3_000, 31.2),
    "greedy-dist": ("distributed_greedy_cds", 500, 12.7),
}

#: The pipelines' phase functions, spanned in the traced run.  The
#: connector phase is WAF's connector protocol, or greedy's per-iteration
#: label flood, gain convergecast and winner flood; greedy's inline gain
#: computation between them is left in the residual.
PATCHES = [
    ("repro.distributed.cds_protocol", "RadioTopology", "distributed.topology"),
    ("repro.distributed.cds_protocol", "elect_leader", "distributed.elect_leader"),
    ("repro.distributed.cds_protocol", "build_bfs_tree", "distributed.build_bfs_tree"),
    ("repro.distributed.cds_protocol", "elect_mis", "distributed.elect_mis"),
    ("repro.distributed.cds_protocol", "_waf_connector_phase",
     "distributed.connector_phase"),
    ("repro.distributed.cds_protocol", "flood_min_labels",
     "distributed.connector_phase"),
    ("repro.distributed.cds_protocol", "convergecast_max",
     "distributed.connector_phase"),
    ("repro.distributed.cds_protocol", "flood_value", "distributed.connector_phase"),
]

SIM_COUNTERS = ("sim.rounds", "sim.transmissions", "sim.receptions",
                "sim.batch.node_rounds", "sim.batch.deliver_batches")


def fixture(n: int, side: float, seed: int):
    from repro.experiments.instances import int_labeled
    from repro.graphs.generators import random_connected_udg

    _, graph = random_connected_udg(n, side, seed=seed)
    return int_labeled(graph)


def _setup(fixture_seed: int, reps: int, tracer: Tracer,
           host: HostSpeed | None = None):
    times, graphs = [], {}
    for _ in range(reps):
        graphs = {}
        quiet_collect()
        t0 = perf_counter()
        with tracer.span("graphs.generate"):
            graphs = {name: fixture(n, side, fixture_seed)
                      for name, (_, n, side) in PIPELINES.items()}
        seconds = perf_counter() - t0
        times.append(host.scaled(seconds) if host is not None else seconds)
    return graphs, times


def run_pipeline(name: str, graph):
    from repro.distributed import cds_protocol

    pipeline = getattr(cds_protocol, PIPELINES[name][0])
    return pipeline(graph)


def _checked(graphs, expected, outcome, certs, tracer):
    """One timed, checked protocol run per call, for
    :func:`common.in_rounds`."""
    from repro.graphs.properties import is_connected_dominating_set

    def op(name):
        graph = graphs[name]
        outcome.attempted += 1
        t0 = perf_counter()
        try:
            result, metrics = run_pipeline(name, graph)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            outcome.fail(f"{name}: {exc!r}")
            return None
        latency = perf_counter() - t0
        digest = sim_digest(result, metrics)
        if not is_connected_dominating_set(graph, result.nodes):
            outcome.fail(f"{name}: not a connected dominating set")
        elif digest != expected[name]:
            outcome.fail(f"{name}: digest {digest} != {expected[name]}")
        certs[name] = cert_ratio(result.size, len(result.dominators))
        return latency

    return op


def sim_digest(result, metrics) -> str:
    """The backbone digest plus the protocol's round and message counts."""
    digest = backbone_digest(result.dominators, result.connectors)
    return f"{digest}:{metrics.rounds}:{metrics.transmissions}"


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    table = load_digests()["sim-rounds"]
    fixture_seed = pick(table["pool"], seed)
    expected = {name: table[name][str(fixture_seed)] for name in PIPELINES}
    outcome = Outcome()
    outcome.notes.append(f"fixture seed {fixture_seed}")
    tracer, certs = Tracer(), {}
    if not trace:
        host = HostSpeed()
        graphs, setups = _setup(fixture_seed, SETUP_REPEATS, tracer, host)
        op = _checked(graphs, expected, outcome, certs, tracer)
        latencies = in_rounds(PIPELINES, op, seconds=seconds, host=host)
        end_to_end(outcome, setups, latencies, sum(latencies), certs, host)
        return outcome

    from repro.obs import OBS

    tracer.active = True
    with tracer.patched(GENERATOR_PATCHES):
        graphs, _ = _setup(fixture_seed, 1, tracer)
    tracer.active = False
    op = _checked(graphs, expected, outcome, certs, tracer)
    untraced = in_rounds(PIPELINES, op, seconds=seconds / 2)
    tracer.top = 0.0
    with GCMonitor() as monitor, tracer.patched(PATCHES), OBS.capture() as reg:
        tracer.active = monitor.active = True
        traced = in_rounds(PIPELINES, op, monitor, rounds=len(untraced))
        tracer.active = monitor.active = False
        counters = reg.counters()
    layer_counters = {name: counters.get(name, 0) for name in SIM_COUNTERS}
    batches = layer_counters["sim.batch.deliver_batches"]
    layer_counters["sim.receptions_per_batch"] = (
        layer_counters["sim.receptions"] / batches if batches else 0.0
    )
    trace_layers(outcome, tracer, monitor, layer_counters, sum(traced),
                 sum(untraced), len(traced))
    return outcome
