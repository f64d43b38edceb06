"""Gate the deterministic operation counters of the benchmark fixtures.

Timing is machine-dependent; the operation counters are not — for a
fixed fixture every builder and solver performs exactly the same
dict-ordered work on every machine and Python version the CI matrix
runs.  This script rebuilds the selected fixtures, runs each
``<case>/<fixture>`` row once under ``OBS.capture()`` and compares its
``{counters, results, seed}`` with ``benchmarks/expected_counters.json``
at zero tolerance.  An algorithmic regression (more gain evaluations
for the same instance) fails it even when wall-clock noise would hide
it, and a timing-only change cannot trip it.  Time claims belong to
the repo benchmark under ``perfbench/``.

Exit status: 0 when every selected row matches, 1 on any difference
(a drifted counter, result or seed, an expected row that did not run,
a run row with no expectation, or a row that raised), 2 on a usage
error.  Rows run through :func:`repro.reliability.run_cells`, so a
raising row is reported by its ``(case, fixture)`` key while every
other row still runs and is compared.

Usage::

    python benchmarks/check_counters.py --fixtures udg20,udg60,udg150 --jobs 2
    python benchmarks/check_counters.py --fixtures udg10000 \\
        --cases sim_mis,sim_waf_dist

Rewrite the selected rows after an *intentional* counter change (and
say why in the commit); every other row is left as it is::

    python benchmarks/check_counters.py --fixtures udg20 --cases greedy --update
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

# Runnable without PYTHONPATH (the CI jobs call it bare).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cds import (  # noqa: E402
    greedy_connector_cds,
    mfold_2conn_cds,
    mfold_greedy_cds,
    steiner_cds,
    waf_cds,
)
from repro.experiments.instances import int_labeled  # noqa: E402
from repro.graphs import random_connected_udg  # noqa: E402
from repro.graphs.backend import build_kernel  # noqa: E402
from repro.graphs.udg import (  # noqa: E402
    Point,
    unit_disk_graph,
    unit_disk_graph_naive,
)
from repro.mis.first_fit import first_fit_mis_nodes  # noqa: E402
from repro.obs import OBS  # noqa: E402
from repro.reliability import run_cells  # noqa: E402

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_counters.json"

#: The shared fixtures of ``benchmarks/conftest.py`` plus the
#: large-instance scaling tier: name -> (n, side, seed).  The tiers up
#: to udg10000 keep deployment density fixed (~3.1 nodes per unit
#: square, mean degree ~9.5) so only ``n`` varies along the scaling
#: axis; the vector-kernel tier (udg100000/udg1000000) is denser
#: (~5.1 and ~6.9 nodes per unit square) because at those sizes the
#: fixed density sits below the random-geometric connectivity
#: threshold — boundary effects dominate and the rejection sampler in
#: ``random_connected_udg`` would never find a connected deployment.
FIXTURES: dict[str, tuple[int, float, int]] = {
    "udg20": (20, 3.8, 1),
    "udg60": (60, 6.2, 2),
    "udg150": (150, 8.0, 3),
    "udg1000": (1000, 18.0, 4),
    "udg4000": (4000, 36.0, 5),
    "udg10000": (10000, 57.0, 6),
    "udg100000": (100000, 140.0, 7),
    "udg1000000": (1000000, 380.0, 8),
}

#: Fixtures checked when ``--fixtures`` is not given: the cheap tier.
DEFAULT_FIXTURES = ("udg20", "udg60", "udg150")

#: Shrink factor applied to a fixture's deployment for the
#: ``mfold_2conn`` case.  The shared fixtures sit near the random-
#: geometric connectivity threshold and are never 2-connected, so the
#: (2,m) solver — correctly — refuses them.  Scaling the same points
#: toward the origin only adds edges (the UDG radius is fixed at 1),
#: and at 0.6 every fixture tier's deployment is 2-connected, keeping
#: the case deterministic while exercising the augmentation phase on
#: an input it accepts.
MFOLD_2CONN_SCALE = 0.6

#: Case names, in run order per fixture.  ``generate`` draws the
#: fixture itself (the rejection sampler's draws, rejections and its
#: one UDG build); ``waf`` and ``greedy`` run
#: the solvers' defaults (``kernel="auto"``); the ``*_indexed`` /
#: ``*_bitset`` / ``*_array`` variants pin the kernel so the CSR,
#: bitmask and numpy code paths are each gated on identical instances.
CASE_NAMES = (
    "generate",
    "udg_build_naive",
    "udg_build_grid",
    "mis_indexed",
    "mis_bitset",
    "mis_array",
    "waf",
    "waf_indexed",
    "waf_bitset",
    "waf_array",
    "greedy",
    "greedy_indexed",
    "greedy_bitset",
    "greedy_array",
    "mfold_greedy",
    "mfold_2conn",
    "steiner",
    "sim_mis",
    "sim_mis_reference",
    "sim_waf_dist",
    "sim_greedy_dist",
)

#: Largest fixture ``n`` (inclusive) each case still runs at — beyond
#: it the case is dropped from the fixture.  The naive builder is
#: quadratic; the interpreted greedy tracker and the Steiner solver
#: are superlinear-in-practice beyond 10^4; the bitset kernel's masks
#: cost n^2/8 bytes (125 GB at 10^6).  Absent means unlimited.
CASE_MAX_N: dict[str, int] = {
    "udg_build_naive": 1999,
    "mis_indexed": 100_000,
    "mis_bitset": 100_000,
    "waf": 100_000,
    "waf_indexed": 100_000,
    "waf_bitset": 100_000,
    "waf_array": 100_000,
    "greedy_indexed": 10_000,
    "greedy_bitset": 100_000,
    # Fault-tolerant variants: the deficit-driven coverage greedy is
    # interpreted like the lazy greedy tracker, and the 2-connectivity
    # augmentation runs cut-vertex sweeps over the backbone — both
    # stop at the same tier the interpreted greedy cases do.
    "mfold_greedy": 10_000,
    "mfold_2conn": 10_000,
    "steiner": 10_000,
    # Protocol-simulation cases: the batched round engine runs the MIS
    # protocol routinely at 10^5; the per-message reference engine and
    # the WAF pipeline stop at 10^4, and the iterative
    # leader-coordinated greedy (O(connectors) full flood/convergecast
    # sweeps) at 10^3.
    "sim_mis": 100_000,
    "sim_mis_reference": 10_000,
    "sim_waf_dist": 10_000,
    "sim_greedy_dist": 1_000,
}


def _sim_mis(graph_int, reference: bool = False):
    """Tree + MIS over a shared interned topology: on the batched engine,
    or with ``reference`` on the reference oracle, swapped in for the
    batched class that ``make_simulator`` looks up at call time."""
    from repro.distributed import (
        RadioTopology,
        Simulator,
        build_bfs_tree,
        elect_mis,
        engine,
    )

    topo = RadioTopology(graph_int)
    swap = (
        mock.patch.object(engine, "BatchedSimulator", Simulator)
        if reference
        else nullcontext()
    )
    with swap:
        tree, tree_metrics = build_bfs_tree(graph_int, 0, topology=topo)
        mis, mis_metrics = elect_mis(graph_int, tree, topology=topo)
    merged = tree_metrics.merge(mis_metrics)
    OBS.incr("bench.sim.rounds", merged.rounds)
    OBS.incr("bench.sim.transmissions", merged.transmissions)
    return tuple(mis)


def _cases(fixture, points, graph):
    """The case callables for one fixture's deployment and its input graph."""
    from repro.distributed import distributed_greedy_cds, distributed_waf_cds

    def sim_dist(solve):
        def run():
            result, metrics = solve(graph)
            OBS.incr("bench.sim.rounds", metrics.rounds)
            OBS.incr("bench.sim.transmissions", metrics.transmissions)
            return result

        return run

    return {
        "generate": lambda: random_connected_udg(*FIXTURES[fixture])[1],
        "udg_build_naive": lambda: unit_disk_graph_naive(points),
        "udg_build_grid": lambda: unit_disk_graph(points),
        "mis_indexed": lambda: first_fit_mis_nodes(
            graph, index=build_kernel(graph, "indexed")
        ),
        "mis_bitset": lambda: first_fit_mis_nodes(
            graph, index=build_kernel(graph, "bitset")
        ),
        "mis_array": lambda: first_fit_mis_nodes(
            graph, index=build_kernel(graph, "array")
        ),
        "waf": lambda: waf_cds(graph),
        "waf_indexed": lambda: waf_cds(graph, kernel="indexed"),
        "waf_bitset": lambda: waf_cds(graph, kernel="bitset"),
        "waf_array": lambda: waf_cds(graph, kernel="array"),
        "greedy": lambda: greedy_connector_cds(graph),
        "greedy_indexed": lambda: greedy_connector_cds(graph, kernel="indexed"),
        "greedy_bitset": lambda: greedy_connector_cds(graph, kernel="bitset"),
        "greedy_array": lambda: greedy_connector_cds(graph, kernel="array"),
        "mfold_greedy": lambda: mfold_greedy_cds(graph, m=2),
        "mfold_2conn": lambda: mfold_2conn_cds(graph, m=2),
        "steiner": lambda: steiner_cds(graph),
        "sim_mis": lambda: _sim_mis(graph),
        "sim_mis_reference": lambda: _sim_mis(graph, reference=True),
        "sim_waf_dist": sim_dist(distributed_waf_cds),
        "sim_greedy_dist": sim_dist(distributed_greedy_cds),
    }


def _result_sizes(value) -> dict:
    if hasattr(value, "size"):  # a CDSResult
        return {
            "cds_size": value.size,
            "dominators": len(value.dominators),
            "connectors": len(value.connectors),
        }
    if isinstance(value, tuple):  # a dominator tuple (mis cases)
        return {"dominators": len(value)}
    return {"nodes": len(value), "edges": value.edge_count()}


def run_row(task: tuple[str, str]) -> dict:
    """Rebuild one fixture and run one case under capture.

    Module-level and self-contained (the deployment is regenerated from
    its seed in-process) so ``run_cells`` gives identical rows at any
    ``--jobs``.
    """
    case, fixture = task
    n, side, seed = FIXTURES[fixture]
    points, graph = random_connected_udg(n, side, seed=seed)
    # A case's input graph is built before capture, like the fixture.
    if case == "mfold_2conn":
        graph = unit_disk_graph(
            [Point(p.x * MFOLD_2CONN_SCALE, p.y * MFOLD_2CONN_SCALE) for p in points]
        )
    elif case.startswith("sim_"):
        graph = int_labeled(graph)
    fn = _cases(fixture, points, graph)[case]
    with OBS.capture() as reg:
        value = fn()
        counters = reg.counters()
    return {"counters": counters, "results": _result_sizes(value), "seed": seed}


def row_key(task: tuple[str, str]) -> str:
    """A row's name in the expected file: ``<case>/<fixture>``."""
    case, fixture = task
    return f"{case}/{fixture}"


def select_rows(
    fixtures: list[str], cases: list[str] | None = None
) -> list[tuple[str, str]]:
    """``(case, fixture)`` pairs to run, after the :data:`CASE_MAX_N` caps."""
    for fixture in fixtures:
        if fixture not in FIXTURES:
            raise KeyError(f"unknown fixture {fixture!r}; known: {list(FIXTURES)}")
    for case in cases or ():
        if case not in CASE_NAMES:
            raise KeyError(f"unknown case {case!r}; known: {list(CASE_NAMES)}")
    return [
        (case, fixture)
        for fixture in fixtures
        for case in CASE_NAMES
        if (cases is None or case in cases)
        and FIXTURES[fixture][0] <= CASE_MAX_N.get(case, FIXTURES[fixture][0])
    ]


def in_selection(row: str, fixtures: list[str], cases: list[str] | None) -> bool:
    """Whether an expected ``<case>/<fixture>`` row belongs to a run
    over ``fixtures`` x ``cases`` (``None``: every case)."""
    case, _, fixture = row.rpartition("/")
    return fixture in fixtures and (cases is None or case in cases)


def compare(expected: dict, actual: dict) -> list[str]:
    """One mismatch line per problem, each naming its row; empty is a pass."""
    problems = []
    for row in sorted(set(expected) | set(actual)):
        if row not in actual:
            problems.append(f"{row}: expected row did not run")
            continue
        if row not in expected:
            problems.append(f"{row}: ran with no expectation (add it with --update)")
            continue
        old, new = expected[row]["counters"], actual[row]["counters"]
        for name in sorted(set(old) | set(new)):
            if old.get(name) != new.get(name):
                problems.append(
                    f"{row}: counter {name!r} expected {old.get(name)} "
                    f"got {new.get(name)}"
                )
        for key in ("results", "seed"):
            if expected[row][key] != actual[row][key]:
                problems.append(
                    f"{row}: {key} expected {expected[row][key]} "
                    f"got {actual[row][key]}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fixtures",
        metavar="NAMES",
        help=(
            f"comma-separated fixtures (default: {','.join(DEFAULT_FIXTURES)}; "
            f"also: {','.join(n for n in FIXTURES if n not in DEFAULT_FIXTURES)})"
        ),
    )
    parser.add_argument(
        "--cases",
        metavar="NAMES",
        help="comma-separated cases (default: every case a fixture's size allows)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run rows across N worker processes (rows are identical at any N)",
    )
    parser.add_argument(
        "--expected",
        default=str(EXPECTED_PATH),
        help="expected-counters file (default: benchmarks/expected_counters.json)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the selected rows of the expected file instead of checking",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be a positive integer (got {args.jobs})")

    fixtures = args.fixtures.split(",") if args.fixtures else list(DEFAULT_FIXTURES)
    cases = args.cases.split(",") if args.cases else None
    try:
        tasks = select_rows(fixtures, cases)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    report = run_cells(
        run_row, tasks, jobs=args.jobs, isolate=args.jobs > 1, key_fn=row_key
    )
    actual = {o.key: o.result for o in report.outcomes if o.ok}
    if not report.ok:
        print(report.render_failures(), file=sys.stderr)

    path = Path(args.expected)
    stored = json.loads(path.read_text()) if path.exists() else {}
    selected = {
        row: value
        for row, value in stored.items()
        if in_selection(row, fixtures, cases)
    }
    if args.update:
        if not report.ok:
            return 1  # never rewrite a selection with rows missing
        kept = {row: value for row, value in stored.items() if row not in selected}
        path.write_text(json.dumps({**kept, **actual}, indent=2, sort_keys=True) + "\n")
        print(f"{len(actual)} rows -> {path} ({len(kept)} other rows kept)")
        return 0

    # A raising row is reported above, not again as "did not run".
    failed = {failure.key for failure in report.failures}
    problems = compare(
        {row: value for row, value in selected.items() if row not in failed},
        actual,
    )
    if problems:
        print("\n".join(problems), file=sys.stderr)
    if problems or failed:
        return 1
    print(f"all {len(actual)} rows match {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
