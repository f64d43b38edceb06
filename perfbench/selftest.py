"""Self-test: the benchmark's output checks catch a tampered backbone.

Usage, from the repository root (about half a minute)::

    python3 perfbench/selftest.py

Two tamperings, each of which must be reported as failed operations:

* the Section IV greedy drops its last connector -- inherited by the
  forked sweep workers, so ``sweep-isolated`` must catch it through the
  committed cell digests;
* the distributed greedy pipeline drops its last connector, which
  ``sim-rounds`` must catch as an invalid CDS.

The untampered sweep must then pass.  Exit code 0 means every check
behaved.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _drop_last_connector(fn, *, pipeline: bool):
    from repro.cds.base import CDSResult

    def tampered(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not pipeline:
            connectors, gains, q_values = out
            return connectors[:-1], gains[:-1], q_values[:-1]
        result, metrics = out
        dropped = result.connectors[-1]
        return CDSResult(
            algorithm=result.algorithm,
            nodes=result.nodes - {dropped},
            dominators=result.dominators,
            connectors=result.connectors[:-1],
        ), metrics

    return tampered


def _run(module, work: Path, seconds: float):
    sub = Path(tempfile.mkdtemp(dir=work))
    return module.run(1, seconds, False, sub)


def main() -> int:
    import wl_sim
    import wl_sweep
    from repro.cds import greedy_connector
    from repro.distributed import cds_protocol

    work = HERE.parent / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    ok = True
    try:
        original = greedy_connector.greedy_connectors
        greedy_connector.greedy_connectors = _drop_last_connector(
            original, pipeline=False)
        try:
            tampered = _run(wl_sweep, work, 0.1)
        finally:
            greedy_connector.greedy_connectors = original
        print(f"tampered sweep: {tampered.failed} of {tampered.attempted} failed")
        ok &= tampered.failed > 0

        clean = _run(wl_sweep, work, 0.1)
        print(f"clean sweep: {clean.failed} of {clean.attempted} failed")
        ok &= clean.failed == 0 and not clean.problems

        original = cds_protocol.distributed_greedy_cds
        cds_protocol.distributed_greedy_cds = _drop_last_connector(
            original, pipeline=True)
        try:
            tampered = _run(wl_sim, work, 0.1)
        finally:
            cds_protocol.distributed_greedy_cds = original
        invalid = [p for p in tampered.problems if "not a connected" in p]
        print(f"tampered sim: {tampered.failed} of {tampered.attempted} failed "
              f"({len(invalid)} invalid CDS)")
        ok &= bool(invalid)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
