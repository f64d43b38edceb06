"""Structured failure records for sweep cells.

A sweep treats failure as data, not as control flow: when a cell
cannot produce a result, what the caller gets is a
:class:`CellFailure` — a picklable, JSON-round-trippable record of
*which* cell failed, *how* (exception / timeout / crash), after *how
many* attempts, and with what traceback.  The record crosses process
boundaries (a worker dies, the parent still knows exactly what was
lost) and lands in the checkpoint ledger so a resumed sweep can report
historical failures alongside fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "FAILURE_KINDS",
    "CellFailure",
]

#: How a cell can fail: a worker exception, a per-cell wall-clock
#: timeout, or a worker process that died without reporting (killed,
#: ``os._exit``, segfault).
FAILURE_KINDS = ("exception", "timeout", "crash")


@dataclass(frozen=True)
class CellFailure:
    """One cell's terminal failure, after all retries were spent.

    Attributes:
        key: the cell's stable identity string (see
            :func:`repro.reliability.runner.run_cells` ``key_fn``).
        kind: one of :data:`FAILURE_KINDS`.
        attempts: how many attempts were made (1 = no retry fired).
        error_type: the exception class name (``"InjectedFault"``,
            ``"ZeroDivisionError"``, ...); ``"TimeoutError"`` for
            timeouts, ``"WorkerCrash"`` for a dead worker.
        message: the exception message / a one-line description.
        traceback: the worker-side formatted traceback, or ``""`` when
            none could be captured (timeout, crash).
        exitcode: the worker process exit code for crashes (negative
            for a signal death, e.g. ``-9`` for SIGKILL), else ``None``.
    """

    key: str
    kind: str
    attempts: int
    error_type: str
    message: str
    traceback: str = ""
    exitcode: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )

    def describe(self) -> str:
        """A one-line human summary for failure reports."""
        extra = f", exit {self.exitcode}" if self.exitcode is not None else ""
        return (
            f"{self.key}: {self.kind} after {self.attempts} attempt(s) "
            f"({self.error_type}: {self.message}{extra})"
        )

    # -- serialisation (checkpoint ledger) ----------------------------

    def to_json_obj(self) -> dict:
        obj: dict[str, Any] = {
            "key": self.key,
            "kind": self.kind,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }
        if self.exitcode is not None:
            obj["exitcode"] = self.exitcode
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "CellFailure":
        return cls(
            key=obj["key"],
            kind=obj["kind"],
            attempts=int(obj["attempts"]),
            error_type=obj["error_type"],
            message=obj["message"],
            traceback=obj.get("traceback", ""),
            exitcode=obj.get("exitcode"),
        )

