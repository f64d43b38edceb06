"""Run one workload of the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off, in
seconds at the reference host speed (``common.HostSpeed``);
``--trace 1`` is the separate traced run that reports the per-layer
metrics (spans from this directory's wrappers, the program's ``OBS``
counters, garbage-collector pauses, the residual and the tracing
overhead).  The metric lists and units come from ``BENCHMARK.json``.
Human-readable lines come first; the last line is the JSON result.
The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "solve-large": "wl_solve",
    "serve-mixed": "wl_serve",
    "sweep-isolated": "wl_sweep",
    "sim-rounds": "wl_sim",
}

PRELOAD = (
    "repro.io",
    "repro.cds",
    "repro.graphs.generators",
    "repro.distributed.cds_protocol",
    "repro.experiments.parallel",
    "repro.experiments.instances",
    "repro.reliability",
    "repro.serve.client",
    "repro.serve.cache",
)

#: Workloads whose seed selects an input from a committed pool.
POOLED = ("solve-large", "sim-rounds")

#: Share of traced wall time above which a residual is flagged.
RESIDUAL_LIMIT = 0.05


def _unit(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("ratio", "share")) else "count"


def held_out_collisions() -> list[str]:
    """Pooled workloads on which the baseline and held-out seeds of
    ``spec.json`` select the same input (serve-mixed and sweep-isolated
    seed a random stream, so distinct seeds always differ there)."""
    from common import load_digests, pick

    seeds = json.loads((HERE / "spec.json").read_text())["seeds"]
    digests = load_digests()
    return [
        name for name in POOLED
        if pick(digests[name]["pool"], seeds["baseline"])
        == pick(digests[name]["pool"], seeds["held_out"])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    collisions = held_out_collisions()
    if collisions:
        print(f"spec.json: the held-out seed selects the baseline input on "
              f"{', '.join(collisions)}", file=sys.stderr)
        return 2
    # Import the program up front so no set-up or timed region pays a
    # first import.
    for name in PRELOAD:
        importlib.import_module(name)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        outcome = module.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for name, value in sorted(outcome.metrics.items()):
        print(f"  {name} = {value:.6g} {_unit(name, units)}")
    if args.trace:
        share = outcome.metrics["residual_share"]
        flag = "FLAG: above" if share > RESIDUAL_LIMIT else "within"
        print(f"  residual {share:.1%} of traced wall time ({flag} "
              f"the {RESIDUAL_LIMIT:.0%} limit)")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    correct = outcome.failed == 0 and not outcome.problems
    metrics = {
        m["name"]: {"value": outcome.metrics.get(m["name"], 0), "unit": m["unit"]}
        for m in listed
    }
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
