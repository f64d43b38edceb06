"""Layer breakdown of ``greedy`` at n = 10^5, kernel ``auto`` vs ``array``.

Usage, from the repository root (a few minutes)::

    python3 perfbench/greedy_breakdown.py

``auto`` resolves to the array kernel at this size, so both settings
run the same code; this script times them alternately on one graph,
with the solve-large spans (kernel build, phase 1, phase 2) and the
garbage-collector monitor, and writes every sample plus the medians to
``perfbench/results/greedy_100000_breakdown.json``.  The ``heap`` case
repeats ``array`` while the previous solves' results are still alive,
the condition under which a sequence of cases in one process times a
later case.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    GCMonitor,
    Tracer,
    backbone_digest,
    quiet_collect,
)
from wl_solve import PATCHES  # noqa: E402

#: The udg100000 fixture density; the deployment is connected, and
#: EXPECTED is greedy's backbone digest on it.
N = 100_000
SIDE = 140.0
SEED = 1
EXPECTED = "2e101c4ba6fd90cf"
LAYERS = ("graphs.build_kernel", "mis.first_fit", "cds.greedy_connectors")
REPEATS = 3
OUT = HERE / "results" / "greedy_100000_breakdown.json"


def _sample(graph, kernel: str, expected: str) -> tuple[dict, object]:
    from repro.cds import greedy_connector_cds

    tracer = Tracer()
    with GCMonitor() as monitor, tracer.patched(PATCHES):
        tracer.active = monitor.active = True
        t0 = perf_counter()
        result = greedy_connector_cds(graph, kernel=kernel)
        wall = perf_counter() - t0
        tracer.active = monitor.active = False
    if backbone_digest(result.dominators, result.connectors) != expected:
        raise SystemExit(f"greedy/{kernel}: backbone digest mismatch")
    sample = {"wall_s": wall}
    sample.update({f"{name}_s": tracer.total(name) for name in LAYERS})
    sample["residual_s"] = wall - sum(tracer.total(name) for name in LAYERS)
    sample["runtime.gc_pause_s"] = monitor.pause
    sample["runtime.gc_collections"] = monitor.collections
    return sample, result


def main() -> int:
    from repro.graphs.generators import uniform_points
    from repro.graphs.udg import unit_disk_graph

    seed, expected = SEED, EXPECTED
    graph = unit_disk_graph(uniform_points(N, SIDE, seed))
    samples: dict[str, list] = {"auto": [], "array": [], "heap": []}
    for rep in range(REPEATS):
        order = ("auto", "array") if rep % 2 == 0 else ("array", "auto")
        for kernel in order:
            quiet_collect()
            samples[kernel].append(_sample(graph, kernel, expected)[0])
        quiet_collect()
        kept = [_sample(graph, "array", expected)[1] for _ in range(2)]
        samples["heap"].append(_sample(graph, "array", expected)[0])
        del kept
    medians = {
        case: {key: statistics.median(s[key] for s in rows) for key in rows[0]}
        for case, rows in samples.items()
    }
    report = {
        "n": N, "side": SIDE, "deployment_seed": seed,
        "repeats": REPEATS,
        "platform": platform.platform(), "python": platform.python_version(),
        "median": medians, "samples": samples,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    for case, row in medians.items():
        print(case, " ".join(f"{k}={v:.3f}" for k, v in row.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
