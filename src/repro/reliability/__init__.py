"""``repro.reliability`` — fault-isolated, resumable sweep execution.

The experiment infrastructure's answer to the failure model of the
networks this reproduction studies: node and task failure are the
*normal case* (cf. the backbone-maintenance literature in PAPERS.md),
so a sweep must survive a crashing cell the way a CDS survives a
crashing node — locally, with bounded repair, and without recomputing
the part of the structure that still stands.

Four pieces, composable and individually testable:

* :mod:`~repro.reliability.failures` — structured
  :class:`CellFailure` records: which cell failed, how, and with what
  worker-side traceback;
* :mod:`~repro.reliability.faults` — deterministic, seeded fault
  injection (:class:`FaultPlan` / :class:`FaultInjector`) at existing
  ``trace()`` sites, powering the chaos test tier;
* :mod:`~repro.reliability.checkpoint` — the fsynced JSONL sweep
  ledger (``repro.reliability/checkpoint/v1``) behind
  ``--checkpoint`` / ``--resume``;
* :mod:`~repro.reliability.runner` — :func:`run_cells`, the
  process-isolated retry/timeout/resume engine over long-lived worker
  processes (a :class:`WorkerSet`, per call or caller-owned), with an
  in-process engine for cheap workers.

See ``docs/robustness.md`` for the failure model and how-to.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA_ID,
    CheckpointLedger,
    CheckpointWriter,
    grid_fingerprint,
    read_checkpoint,
    repair_trailing_line,
    validate_checkpoint_lines,
)
from .failures import FAILURE_KINDS, CellFailure
from .faults import (
    FAULT_ACTIONS,
    KILL_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    det_unit,
    parse_fault_spec,
)
from .runner import CellOutcome, RetryPolicy, SweepReport, WorkerSet, run_cells

__all__ = [
    "CHECKPOINT_SCHEMA_ID",
    "CheckpointLedger",
    "CheckpointWriter",
    "grid_fingerprint",
    "read_checkpoint",
    "repair_trailing_line",
    "validate_checkpoint_lines",
    "FAILURE_KINDS",
    "CellFailure",
    "FAULT_ACTIONS",
    "KILL_EXIT_CODE",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "det_unit",
    "parse_fault_spec",
    "CellOutcome",
    "RetryPolicy",
    "SweepReport",
    "WorkerSet",
    "run_cells",
]
