"""Command-line entry point: ``python -m repro`` / ``repro-cds``.

Two modes:

* **experiments** (default) — run the registered paper-artifact
  experiments and print their tables::

      python -m repro --list          # show all experiment ids
      python -m repro T8 T10          # run two experiments
      python -m repro --all --csv out # run everything, dump CSVs
      python -m repro --all --jobs 4  # same, across 4 worker processes

* **solve** — run a CDS algorithm on a deployment CSV (``x,y`` header,
  one point per row; see :mod:`repro.io`)::

      python -m repro solve deploy.csv --algorithm greedy --viz
      python -m repro solve deploy.csv --algorithm waf --prune \
          --out backbone.json

Both modes accept the observability flags (see
``docs/observability.md``):

* ``--trace`` — print the counter/timer report after the run;
* ``--stats-out FILE`` — write a schema-checked
  :class:`repro.obs.RunRecord` JSON;
* ``--events-out FILE`` — write the ``repro.obs/event/v1`` JSONL span
  log (each experiment records its own log; the logs are merged
  deterministically at any ``--jobs`` and under every reliability
  flag; ``sweep`` rejects the flag);
* ``--mem-trace`` — per-span peak memory via ``tracemalloc``
  (``mem.*`` counters in the record/report);
* ``--profile-out FILE`` — cProfile the run and write pstats.

::

      python -m repro T8 --stats-out rec.json --events-out t8.jsonl
      python -m repro --all --jobs 4 --stats-out rec.json
      python -m repro solve deploy.csv --algorithm greedy --trace \
          --mem-trace --profile-out solve.pstats

A third mode, **sweep**, runs one algorithm over an ``(n x seed)``
grid of random connected UDG instances with the reliability layer
underneath — fault isolation, bounded retries, per-cell timeouts, and
a checkpoint ledger so an interrupted sweep resumes only its missing
cells (see ``docs/robustness.md``)::

      python -m repro sweep --ns 50,100 --seeds 0:10 --algorithm greedy \
          --jobs 4 --retries 2 --cell-timeout 60 \
          --checkpoint sweep.jsonl
      python -m repro sweep --ns 50,100 --seeds 0:10 --algorithm greedy \
          --jobs 4 --checkpoint sweep.jsonl --resume   # after a crash

The reliability flags (``--checkpoint``/``--resume``/``--retries``/
``--cell-timeout``/``--backoff``, plus ``--inject-fault`` for chaos
drills) are also accepted by the experiments mode, where the "cells"
are the experiment ids themselves::

      python -m repro --all --jobs 4 --checkpoint exps.jsonl --retries 1
      python -m repro --all --jobs 4 --checkpoint exps.jsonl --resume

A fourth mode, **serve**, runs the long-lived solve daemon — newline-
delimited JSON over TCP or a Unix socket, request batching through the
sweep machinery, and a fingerprint-keyed result cache whose hits are
bit-identical to cold solves (see ``docs/serving.md``) — with
**serve-client** as the matching one-shot client / load generator::

      python -m repro serve --port 7533 --jobs 4 --trace
      python -m repro serve-client --connect 127.0.0.1:7533 --n 60 --seed 2
      python -m repro serve-client --connect 127.0.0.1:7533 --stats
      python -m repro serve-client --connect 127.0.0.1:7533 --loadgen \
          --ns 60 --seeds 0:8 --requests 200 --out report.json
      python -m repro serve-client --connect 127.0.0.1:7533 --shutdown

Where each mode sits in the stack: ``docs/architecture.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .experiments.harness import all_experiments
from .graphs.backend import KERNELS
from .obs.events import EventLog, merge_events, write_events
from .solvers import solver_registry, takes

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "solve":
        return _solve_main(args[1:])
    if args and args[0] == "sweep":
        return _sweep_main(args[1:])
    if args and args[0] == "serve":
        return _serve_main(args[1:])
    if args and args[0] == "serve-client":
        return _serve_client_main(args[1:])
    if args and args[0] == "obs":
        return _obs_main(args[1:])
    return _experiments_main(args)


def _obs_main(argv: Sequence[str]) -> int:
    """``python -m repro obs tail FILE``: live telemetry viewer."""
    if not argv or argv[0] != "tail":
        print(
            "usage: python -m repro obs tail FILE [--interval SECONDS] "
            "[--once]",
            file=sys.stderr,
        )
        return 2
    from .obs.tail import main as tail_main

    return tail_main(argv[1:])


def _serve_main(argv: Sequence[str]) -> int:
    """``python -m repro serve``: run the solve daemon until drained."""
    parser = argparse.ArgumentParser(
        prog="repro-cds serve",
        description=(
            "Run the long-lived solve daemon: newline-delimited JSON "
            "requests over TCP or a Unix socket, batched through the "
            "sweep machinery, with a fingerprint-keyed result cache "
            "whose hits are bit-identical to cold solves "
            "(docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7533,
        metavar="N",
        help="TCP port; 0 lets the OS pick (default: 7533)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a Unix socket at PATH instead of TCP",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="solver processes per batch (default: 1, inline)",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="how long the batcher waits to coalesce arrivals "
        "(default: 0.005)",
    )
    parser.add_argument(
        "--batch-max",
        type=_positive_int,
        default=32,
        metavar="N",
        help="hard batch-size cap (default: 32)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="LRU result-cache entries; 0 disables caching "
        "(default: 1024)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve a Prometheus text exposition (v0.0.4) at "
        "http://127.0.0.1:N/metrics while running; 0 lets the OS pick",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="append periodic repro.obs/metrics-snapshot/v1 JSONL "
        "snapshots to FILE (view live with 'python -m repro obs tail')",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="snapshot period for --metrics-out (default: 1.0)",
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)
    if args.metrics_interval <= 0:
        print("--metrics-interval must be > 0", file=sys.stderr)
        return 2

    from .serve import ServeConfig, run_server

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            socket_path=args.socket,
            jobs=args.jobs,
            batch_window=args.batch_window,
            batch_max=args.batch_max,
            cache_size=args.cache_size,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    telemetry: dict = {}

    def on_ready(server) -> None:
        address = server.address
        rendered = (
            address if isinstance(address, str) else f"{address[0]}:{address[1]}"
        )
        print(
            f"serving on {rendered} (jobs={args.jobs}, "
            f"batch-window={args.batch_window}s, batch-max={args.batch_max}, "
            f"cache={args.cache_size})",
            flush=True,
        )
        # Live telemetry (docs/observability.md §7): both consumers
        # render merge copies from SolveServer.metrics_registry, never
        # the shared OBS, so scraping cannot perturb the run record.
        if args.metrics_port is not None:
            from .obs.expose import MetricsExporter, render_exposition

            exporter = MetricsExporter(
                lambda: render_exposition(server.metrics_registry()),
                port=args.metrics_port,
            )
            host, metrics_port = exporter.start()
            telemetry["exporter"] = exporter
            print(
                f"metrics exposition on http://{host}:{metrics_port}/metrics",
                flush=True,
            )
        if args.metrics_out:
            from .obs.expose import PeriodicSnapshotter, SnapshotStream

            stream = SnapshotStream(args.metrics_out, source="serve")
            snapshotter = PeriodicSnapshotter(
                stream, server.metrics_registry, interval=args.metrics_interval
            )
            snapshotter.start()
            telemetry["snapshotter"] = snapshotter
            telemetry["stream"] = stream
            print(
                f"metrics snapshots to {args.metrics_out} "
                f"(every {args.metrics_interval}s)",
                flush=True,
            )

    session = _ObsSession(args)
    session.start()
    with session.profiled():
        server = run_server(config, on_ready=on_ready)
    if "exporter" in telemetry:
        telemetry["exporter"].stop()
    if "snapshotter" in telemetry:
        # stop() writes one final snapshot from the drained server, so
        # the stream's last line carries exactly the counters the
        # --stats-out run record freezes below.
        telemetry["snapshotter"].stop()
        telemetry["stream"].close()
        print(f"metrics snapshots written to {args.metrics_out}")
    # Fold the daemon's lifetime metrics (serve.* counters/timers/
    # histograms plus the merged solver counters) into the registry
    # before draining the session, so --trace/--stats-out describe the
    # whole serving run.
    if session.wanted:
        # The inline (jobs=1) solve path captures-and-resets the shared
        # registry around each cell, leaving the *last* cell's counters
        # behind; clear that residue so the record holds exactly the
        # daemon's lifetime metrics — bit-identical to the final
        # --metrics-out snapshot.
        from .obs import OBS as _OBS

        _OBS.reset()
        server.emit_obs()
    session.stop_hooks()
    snapshot = server.stats.snapshot(server.cache)
    cache = snapshot["cache"]
    print(
        f"drained: {snapshot['requests']} request(s), "
        f"{snapshot['cells_solved']} cell(s) solved, "
        f"{cache['hits']} cache hit(s), {snapshot['errors']} error(s)"
    )
    _emit_obs(
        args,
        session,
        algorithm="serve",
        instance={
            "host": args.host,
            "port": args.port,
            "socket": args.socket,
            "jobs": args.jobs,
            "batch_window": args.batch_window,
            "batch_max": args.batch_max,
            "cache_size": args.cache_size,
        },
        results=snapshot,
    )
    return 0


def _serve_client_main(argv: Sequence[str]) -> int:
    """``python -m repro serve-client``: one-shot client / load driver."""
    parser = argparse.ArgumentParser(
        prog="repro-cds serve-client",
        description=(
            "Talk to a running solve daemon: one solve, a control op "
            "(--ping/--stats/--shutdown), or a deterministic load run "
            "(--loadgen) that audits every response against the schema "
            "and the bit-identical cache contract."
        ),
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help="daemon address: HOST:PORT or a Unix-socket path",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="socket timeout (default: 60)",
    )
    ops = parser.add_mutually_exclusive_group()
    ops.add_argument(
        "--ping", action="store_true", help="liveness probe, print the ack"
    )
    ops.add_argument(
        "--stats", action="store_true", help="print the daemon's metrics JSON"
    )
    ops.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to drain"
    )
    ops.add_argument(
        "--loadgen",
        action="store_true",
        help="drive the deterministic load generator (see --requests/--ns)",
    )
    parser.add_argument(
        "--n", type=_positive_int, default=None, metavar="N",
        help="solve one random connected UDG instance of this size",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="instance seed for --n (default: 0)",
    )
    parser.add_argument(
        "--side", type=float, default=None, metavar="L",
        help="deployment square side (default: density-preserving)",
    )
    parser.add_argument(
        "--algorithm", default="greedy",
        choices=sorted(solver_registry()),
        help="construction algorithm (default: greedy)",
    )
    parser.add_argument(
        "--kernel", default="auto", choices=KERNELS,
        help="graph kernel for the kernelized solvers "
        "(auto picks by instance size)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ask the daemon to bypass its result cache for this request",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw response JSON instead of the summary line",
    )
    parser.add_argument(
        "--ns", default="60", metavar="N1,N2|LO:HI",
        help="loadgen: instance sizes (default: 60)",
    )
    parser.add_argument(
        "--seeds", default="0:8", metavar="S1,S2|LO:HI",
        help="loadgen: instance seeds (default: 0:8)",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=100, metavar="R",
        help="loadgen: offered requests (default: 100)",
    )
    parser.add_argument(
        "--concurrency", type=_positive_int, default=4, metavar="C",
        help="loadgen: concurrent client connections (default: 4)",
    )
    parser.add_argument(
        "--rng-seed", type=int, default=0, metavar="S",
        help="loadgen: seed of the request-mix draw (default: 0)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="loadgen: write the load report JSON to FILE",
    )
    args = parser.parse_args(argv)

    import json as _json

    from .serve import ServeClient, parse_address, request_sequence, run_load

    address = parse_address(args.connect)
    try:
        if args.loadgen:
            ns = _parse_int_list(args.ns, "--ns")
            seeds = _parse_int_list(args.seeds, "--seeds")
            sequence = request_sequence(
                ns,
                seeds,
                args.requests,
                algorithm=args.algorithm,
                kernel=args.kernel,
                rng_seed=args.rng_seed,
            )
            report = run_load(
                address,
                sequence,
                concurrency=args.concurrency,
                timeout=args.timeout,
            )
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    _json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"load report written to {args.out}")
            latency = report["latency_seconds"]
            print(
                f"{report['requests']} request(s) in "
                f"{report['elapsed_seconds']:.2f}s: "
                f"{report['requests_per_second']:.0f} req/s, "
                f"p50 {latency['p50'] * 1e3:.2f}ms, "
                f"p99 {latency['p99'] * 1e3:.2f}ms, "
                f"cache hit rate {report['server']['cache_hit_rate']:.0%}"
            )
            if not report["ok"]:
                print(
                    f"AUDIT FAILED: {report['errors']} error(s), "
                    f"{len(report['schema_violations'])} schema violation(s), "
                    f"{len(report['identity_violations'])} identity "
                    "violation(s)",
                    file=sys.stderr,
                )
                return 1
            return 0
        with ServeClient(address, timeout=args.timeout) as client:
            if args.ping:
                response = client.ping()
            elif args.stats:
                response = client.stats()
            elif args.shutdown:
                response = client.shutdown()
            else:
                if args.n is None:
                    print(
                        "nothing to do: give --n (solve) or one of "
                        "--ping/--stats/--shutdown/--loadgen",
                        file=sys.stderr,
                    )
                    return 2
                response = client.solve(
                    n=args.n,
                    seed=args.seed,
                    side=args.side,
                    algorithm=args.algorithm,
                    kernel=args.kernel,
                    cache=not args.no_cache,
                )
    except (OSError, ConnectionError) as exc:
        print(f"cannot reach daemon at {args.connect}: {exc}", file=sys.stderr)
        return 1
    if args.json or args.stats:
        print(_json.dumps(response, indent=2, sort_keys=True))
    elif response.get("status") == "error":
        error = response["error"]
        print(f"error: {error['type']}: {error['message']}", file=sys.stderr)
        return 1
    elif "result" in response:
        result = response["result"]
        print(
            f"{result['algorithm']}: |CDS|={result['cds_size']} "
            f"({result['dominators']} dominators + "
            f"{result['connectors']} connectors), "
            f"cached={response['cached']}, batch={response['batch']}, "
            f"{response['elapsed'] * 1e3:.2f}ms "
            f"[{response['fingerprint']}]"
        )
    else:
        print(f"{response.get('op', 'ok')}: {response.get('status')}")
    return 0 if response.get("status") == "ok" else 1


def _experiments_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cds",
        description=(
            "Reproduction experiments for 'Two-Phased Approximation "
            "Algorithms for Minimum CDS in Wireless Ad Hoc Networks' "
            "(Wan, Wang, Yao - ICDCS 2008).  See also the 'solve' "
            "subcommand for running algorithms on your own deployments."
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids to run")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each result table as CSV into this directory",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "run experiments across N worker processes (output order and "
            "content are identical to a serial run; --trace/--stats-out/"
            "--events-out merge the per-worker instrumentation "
            "deterministically)"
        ),
    )
    _add_reliability_flags(parser, cell_noun="experiment")
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    registry = all_experiments()
    if args.list or (not args.experiments and not args.all):
        for key, (title, _) in sorted(registry.items()):
            print(f"{key:6s} {title}")
        return 0

    from .experiments.harness import ExperimentResult
    from .experiments.parallel import run_experiments_resilient
    from .obs import OBS

    error = _validate_reliability_flags(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    session = _ObsSession(args)
    ids = sorted(registry) if args.all else args.experiments
    failed: list[str] = []
    ran: list[str] = []
    results = []
    worker_logs = []
    # One runner for every layout: in this process for a plain --jobs 1
    # run, on at most N long-lived forked workers under --jobs N or any
    # reliability flag.  A worker runs experiment after experiment (one
    # that crashes, times out or raises a BaseException is replaced),
    # so an experiment must leave no process-global state behind that
    # changes a later one.  Each experiment records its own counters,
    # spans, event log and memory peaks; this process merges the
    # payloads the same way whether they were computed now or resumed
    # from the ledger.
    session.start(workers=True)
    try:
        with session.profiled():
            report = run_experiments_resilient(
                ids,
                jobs=args.jobs,
                collect_obs=session.wanted,
                collect_events=bool(args.events_out),
                mem_trace=args.mem_trace,
                policy=(
                    _retry_policy(args) if _reliability_requested(args) else None
                ),
                faults=_fault_plan(args),
                checkpoint=args.checkpoint,
                resume=args.resume,
            )
        for outcome in report.outcomes:
            if not outcome.ok:
                continue
            payload = outcome.result
            results.append(ExperimentResult.from_json_obj(payload["result"]))
            if session.wanted and payload.get("state"):
                # A resumed ledger's state may predate the current
                # span form; merge_state refuses it (ValueError).
                OBS.merge_state(payload["state"])
            if args.events_out and payload.get("events"):
                worker_logs.append(payload["events"])
    except (KeyError, ValueError) as exc:
        # args[0], not str(exc): a KeyError's str() wraps it in quotes.
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    finally:
        session.stop_hooks()
    session.merge_worker_events(worker_logs)
    if not report.ok:
        print(report.render_failures(), file=sys.stderr)
    for result in results:
        ran.append(result.experiment_id)
        print(result.render())
        print()
        if args.csv:
            _write_csv(result, args.csv)
        if not result.passed:
            failed.append(result.experiment_id)
    _emit_obs(
        args,
        session,
        algorithm="experiments" if len(ran) != 1 else f"experiment:{ran[0]}",
        instance={"experiments": ran},
        results={"ran": len(ran), "failed": failed},
    )
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    if not report.ok:
        return 1
    print(f"all {len(ids)} experiment(s) passed")
    return 0


def _add_reliability_flags(
    parser: argparse.ArgumentParser, cell_noun: str = "cell"
) -> None:
    """The fault-isolation/checkpoint flags shared by sweep-shaped modes."""
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=f"re-run a failed {cell_noun} up to N extra times "
        "(deterministic backoff; see --backoff)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=f"per-attempt wall-clock budget; an overdue {cell_noun} "
        "worker is terminated and counted as a timeout failure",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base retry delay, doubled per attempt with a jitter "
        "seeded per cell (reruns sleep the identical schedule)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="journal completed cells to this JSONL ledger "
        "(repro.reliability/checkpoint/v1), fsynced per cell",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="load --checkpoint first and run only the missing cells; "
        "merged results and counters are bit-identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="chaos drill: deterministically inject a fault at trace "
        "sites, e.g. 'site=greedy.phase2;action=kill;scope=*seed=1*' "
        "(repeatable; see docs/robustness.md)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for --inject-fault decisions",
    )


def _reliability_requested(args) -> bool:
    return bool(
        args.checkpoint
        or args.resume
        or args.retries
        or args.cell_timeout is not None
        or args.inject_fault
    )


def _validate_reliability_flags(args) -> str | None:
    if args.resume and not args.checkpoint:
        return "--resume requires --checkpoint FILE"
    if args.retries < 0:
        return f"--retries must be >= 0 (got {args.retries})"
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        return f"--cell-timeout must be > 0 (got {args.cell_timeout})"
    return None


def _retry_policy(args):
    from .reliability import RetryPolicy

    return RetryPolicy(
        retries=args.retries,
        timeout=args.cell_timeout,
        backoff=args.backoff,
        seed=args.fault_seed,
    )


def _fault_plan(args):
    if not args.inject_fault:
        return None
    from .reliability import FaultPlan, parse_fault_spec

    return FaultPlan(
        seed=args.fault_seed,
        specs=tuple(parse_fault_spec(spec) for spec in args.inject_fault),
    )


def _parse_int_list(text: str, flag: str) -> list[int]:
    """``"20,40"`` -> ``[20, 40]``; ``"0:5"`` -> ``[0, 1, 2, 3, 4]``."""
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            values = list(range(int(lo), int(hi)))
        else:
            values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(
            f"{flag} expects comma-separated integers or LO:HI, got {text!r}"
        ) from None
    if not values:
        raise ValueError(f"{flag} selected no values (got {text!r})")
    return values


def _sweep_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cds sweep",
        description=(
            "Run a CDS algorithm over an (n x seed) grid of random "
            "connected UDGs with fault isolation, retries, per-cell "
            "timeouts and checkpoint/resume (docs/robustness.md).  "
            "Cell results and merged counters are deterministic per "
            "seed, whatever --jobs is and however often the sweep was "
            "interrupted and resumed."
        ),
    )
    parser.add_argument(
        "--ns",
        required=True,
        metavar="N1,N2|LO:HI",
        help="instance sizes of the grid",
    )
    parser.add_argument(
        "--seeds",
        default="0",
        metavar="S1,S2|LO:HI",
        help="instance seeds per size (default: just seed 0)",
    )
    parser.add_argument(
        "--side",
        type=float,
        default=None,
        metavar="L",
        help="deployment square side (default: density-preserving per n)",
    )
    parser.add_argument(
        "--algorithm",
        default="greedy",
        choices=sorted(solver_registry()),
        help="construction algorithm (default: greedy)",
    )
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=KERNELS,
        help="graph kernel for the kernelized solvers (results are "
        "identical under every kernel)",
    )
    parser.add_argument(
        "--m",
        type=_positive_int,
        default=None,
        metavar="N",
        help="coverage multiplicity for the fault-tolerant solvers "
        "(mfold-greedy, mfold-2conn)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="cells running concurrently (each on its own worker process)",
    )
    _add_reliability_flags(parser)
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    from .experiments.harness import Table
    from .experiments.parallel import solve_cells_resilient, sweep_cells
    from .obs import OBS

    error = _validate_reliability_flags(args)
    if args.events_out:
        # solve_cell's summary is digest-pinned and carries counters,
        # not spans, so an isolated cell's span log cannot come back.
        error = (
            "--events-out is not supported by sweep "
            "(cells report counters, not spans)"
        )
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        ns = _parse_int_list(args.ns, "--ns")
        seeds = _parse_int_list(args.seeds, "--seeds")
        plan = _fault_plan(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    cells = sweep_cells(ns, seeds, side=args.side)
    kernel = None if args.kernel == "auto" else args.kernel

    session = _ObsSession(args)
    session.start()
    try:
        with session.profiled():
            report = solve_cells_resilient(
                cells,
                algorithm=args.algorithm,
                jobs=args.jobs,
                kernel=kernel,
                m=args.m,
                policy=_retry_policy(args),
                faults=plan,
                checkpoint=args.checkpoint,
                resume=args.resume,
            )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    session.stop_hooks()

    table = Table(
        title=f"sweep: {args.algorithm} (kernel={args.kernel})",
        headers=("n", "seed", "cds", "dominators", "connectors", "attempts"),
    )
    for outcome in report.outcomes:
        if not outcome.ok:
            continue
        summary = outcome.result
        table.add_row(
            summary["n"],
            summary["seed"],
            summary["cds_size"],
            summary["dominators"],
            summary["connectors"],
            outcome.attempts,
        )
        if session.wanted:
            # Cell counters merge by the registry's rules (sums; mem.*
            # peaks by max), so --trace/--stats-out report the sweep's
            # merged operational counts — bit-identical however the
            # sweep was scheduled, interrupted or resumed.
            OBS.merge_state({"counters": summary["counters"]})
    print(table.render())
    if not report.ok:
        print(report.render_failures(), file=sys.stderr)
    print(
        f"{len(report.results)}/{len(cells)} cell(s) ok "
        f"({report.resumed} resumed, {report.retries} retried)"
    )
    _emit_obs(
        args,
        session,
        algorithm=f"sweep:{args.algorithm}",
        instance={
            "ns": ns,
            "seeds": seeds,
            "side": args.side,
            "kernel": args.kernel,
            "cells": len(cells),
        },
        results={
            "ok": len(report.results),
            "failed": len(report.failures),
            "resumed": report.resumed,
            "retries": report.retries,
        },
    )
    return 0 if report.ok else 1


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect instrumentation and print the counter/timer report",
    )
    parser.add_argument(
        "--stats-out",
        metavar="FILE",
        help="write a repro.obs RunRecord (JSON) describing this run",
    )
    parser.add_argument(
        "--events-out",
        metavar="FILE",
        help=(
            "write the structured span log (repro.obs/event/v1 JSONL): "
            "nested begin/end events with timestamps and counter deltas"
        ),
    )
    parser.add_argument(
        "--mem-trace",
        action="store_true",
        help=(
            "track per-span peak memory via tracemalloc; mem.* counters "
            "appear in the --trace report and the RunRecord"
        ),
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        help="cProfile the run and write pstats to FILE (e.g. run.pstats)",
    )


class _NoteLog(EventLog):
    """An event log of point notes only: the reliability layer's
    retries and failures.  Experiments record their spans in their own
    logs, and under the inline engine those spans run in this process
    too, so this log skips them."""

    __slots__ = ()

    def begin(self, name: str) -> None:
        return None

    def end(self, name: str, token: object, seconds: float) -> None:
        return None


class _ObsSession:
    """Per-invocation observability state: hooks, events, profiler.

    Ties the opt-in flags to the shared ``OBS`` registry for exactly
    one CLI run: ``start()`` enables the registry and attaches the
    event log / memory tracker, ``profiled()`` wraps the run in
    cProfile when asked, and ``_emit_obs`` drains everything.  In
    experiments mode (``start(workers=True)``) the experiments record
    their own spans and memory peaks; this process keeps only a notes
    log, and :meth:`merge_worker_events` folds the workers' logs in.
    """

    def __init__(self, args):
        self.args = args
        self.wanted = bool(
            args.trace or args.stats_out or args.events_out or args.mem_trace
        )
        self.event_log = None
        self.merged_events = None
        self._mem_cm = None

    def start(self, workers: bool = False) -> None:
        if not self.wanted:
            return
        from .obs import OBS

        OBS.reset()
        OBS.enable()
        if self.args.events_out:
            self.event_log = (_NoteLog if workers else EventLog)(OBS)
            OBS.add_hook(self.event_log)
        if self.args.mem_trace and not workers:
            from .obs.profile import mem_tracing

            self._mem_cm = mem_tracing(OBS)
            self._mem_cm.__enter__()

    def stop_hooks(self) -> None:
        """Detach hooks (before reporting, so the drain itself is quiet)."""
        from .obs import OBS

        if self._mem_cm is not None:
            self._mem_cm.__exit__(None, None, None)
            self._mem_cm = None
        if self.event_log is not None:
            OBS.remove_hook(self.event_log)

    def merge_worker_events(self, logs: list) -> None:
        """Interleave the workers' event logs with this process's notes.

        The notes log joins the merge only when it holds notes, or when
        no worker log exists (the output then is still a valid log).
        """
        if self.event_log is None:
            return
        notes = self.event_log.events
        if len(notes) > 1 or not logs:
            logs = [*logs, notes]
        self.merged_events = merge_events(logs)

    def profiled(self):
        """Context manager for the run body: cProfile when requested."""
        if self.args.profile_out:
            from .obs.profile import profile_to

            return profile_to(self.args.profile_out)
        from contextlib import nullcontext

        return nullcontext()

    @property
    def events(self) -> list | None:
        if self.merged_events is not None:
            return self.merged_events
        if self.event_log is not None:
            return self.event_log.events
        return None


def _emit_obs(args, session: _ObsSession, *, algorithm: str, instance: dict,
              results: dict, seed: int | None = None) -> None:
    """Drain the session: report, RunRecord, event log, profile note."""
    if args.profile_out:
        print(f"profile written to {args.profile_out}")
    if not session.wanted:
        return
    from . import __version__
    from .obs import OBS, RunRecord, render_report

    if args.trace:
        print(render_report(OBS))
    if args.stats_out:
        record = RunRecord.from_registry(
            OBS,
            algorithm=algorithm,
            instance=instance,
            seed=seed,
            results=results,
            meta={"argv": list(sys.argv[1:]), "version": __version__},
        )
        record.write(args.stats_out)
        print(f"run record written to {args.stats_out}")
    if args.events_out and session.events is not None:
        write_events(session.events, args.events_out)
        print(f"event log written to {args.events_out}")
    OBS.disable()


def _solve_main(argv: Sequence[str]) -> int:
    solvers = solver_registry()
    parser = argparse.ArgumentParser(
        prog="repro-cds solve",
        description="Construct a CDS backbone for a deployment CSV (x,y per row).",
    )
    parser.add_argument("deployment", help="CSV file with an 'x,y' header")
    parser.add_argument(
        "--algorithm",
        default="greedy",
        choices=sorted(solvers),
        help="construction algorithm (default: greedy — the paper's Section IV)",
    )
    parser.add_argument(
        "--prune", action="store_true", help="minimalize the result afterwards"
    )
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=KERNELS,
        help=(
            "graph kernel for the solver's hot loops: 'auto' (default) "
            "picks by algorithm and instance size, 'indexed' forces the "
            "CSR lists, 'bitset' the neighborhood bitmasks for greedy, "
            "'array' the CSR lists with the lazy-heap greedy; results "
            "are identical under every kernel"
        ),
    )
    parser.add_argument(
        "--m",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "coverage multiplicity for the fault-tolerant solvers "
            "(mfold-greedy, mfold-2conn): every node outside the "
            "backbone gets N distinct dominators (default: the "
            "solver's own default, 2)"
        ),
    )
    parser.add_argument("--out", metavar="FILE", help="write the result as JSON")
    parser.add_argument(
        "--viz", action="store_true", help="print a terminal map of the backbone"
    )
    parser.add_argument(
        "--ratio",
        action="store_true",
        help="also report |CDS|/gamma_c (exact for small n, else a lower bound)",
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    from .analysis.ratios import estimate_gamma_c
    from .cds.prune import prune_result
    from .graphs.traversal import connected_components, is_connected
    from .graphs.udg import unit_disk_graph
    from .io import load_points, save_result
    from .obs import OBS

    session = _ObsSession(args)
    session.start()

    try:
        with OBS.time("io.load_points"):
            points = load_points(args.deployment)
    except (OSError, ValueError) as exc:
        print(f"cannot read deployment: {exc}", file=sys.stderr)
        return 2
    if not points:
        print("deployment is empty", file=sys.stderr)
        return 2
    try:
        graph = unit_disk_graph(points)
    except ValueError as exc:
        # Duplicate or non-finite coordinates: an input no deployment
        # can mean, rejected before any component is chosen.
        print(f"invalid deployment: {exc}", file=sys.stderr)
        return 2
    with OBS.time("graphs.is_connected"):
        connected = is_connected(graph)
    if not connected:
        # A CDS needs a connected network: solving a component instead
        # would silently change the instance.
        sizes = [len(c) for c in connected_components(graph)]
        print(
            f"invalid deployment: disconnected into {len(sizes)} components "
            f"(the largest has {max(sizes)} of {len(graph)} nodes)",
            file=sys.stderr,
        )
        return 2

    solver = solvers[args.algorithm]
    solver_kwargs = {}
    if takes(solver, "kernel"):
        solver_kwargs["kernel"] = args.kernel
    elif args.kernel != "auto":
        print(
            f"--kernel is not supported by algorithm {args.algorithm!r} "
            "(only the kernelized solvers: waf, greedy)",
            file=sys.stderr,
        )
        return 2
    if args.m is not None:
        if not takes(solver, "m"):
            print(
                f"--m is not supported by algorithm {args.algorithm!r} "
                "(only the fault-tolerant solvers: mfold-greedy, "
                "mfold-2conn)",
                file=sys.stderr,
            )
            return 2
        solver_kwargs["m"] = args.m
    with session.profiled(), OBS.time("solve.total"):
        try:
            result = solver(graph, **solver_kwargs)
        except ValueError as exc:
            # e.g. mfold-2conn on a deployment that is not 2-connected:
            # no (2,m)-CDS exists, which is an input property, not a bug.
            print(f"{args.algorithm}: {exc}", file=sys.stderr)
            return 2
    with OBS.time("cds.validate"):
        valid = result.is_valid(graph)
    if not valid:
        print(f"{args.algorithm} produced an invalid CDS (bug)", file=sys.stderr)
        return 1
    if args.prune:
        result = prune_result(graph, result)

    print(f"nodes: {len(graph)}   links: {graph.edge_count()}")
    print(f"algorithm: {result.algorithm}   backbone size: {result.size}")
    if args.ratio:
        gamma = estimate_gamma_c(graph)
        kind = "exact" if gamma.exact else "lower bound"
        print(
            f"gamma_c ({kind}, {gamma.method}): {gamma.value}   "
            f"ratio: {result.size / gamma.value:.3f}"
        )
    if args.viz:
        from .viz import render_backbone_legend, render_deployment

        print(render_deployment(points, result, width=60))
        print(render_backbone_legend())
    if args.out:
        with OBS.time("io.save_result"):
            save_result(result, args.out)
        print(f"result written to {args.out}")
    session.stop_hooks()
    _emit_obs(
        args,
        session,
        algorithm=result.algorithm,
        instance={
            "source": args.deployment,
            "nodes": len(graph),
            "edges": graph.edge_count(),
        },
        results={
            "cds_size": result.size,
            "dominators": len(result.dominators),
            "connectors": len(result.connectors),
        },
    )
    return 0


def _write_csv(result, directory: str) -> None:
    """Dump each table of an experiment result as a CSV file."""
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for i, table in enumerate(result.tables):
        name = f"{result.experiment_id.lower()}_{i}.csv"
        (out / name).write_text(table.to_csv())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
