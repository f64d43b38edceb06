"""Deterministic fault injection at named ``trace()`` sites.

Chaos testing only earns its keep when a failing run can be replayed
exactly, so every injection decision here is a pure function of
``(plan seed, cell scope, span name, occurrence index)`` — hashed with
SHA-256, never with Python's per-process-randomised ``hash()`` — and
the injector plugs into the existing :class:`repro.obs.core.SpanHook`
layer.  That means every instrumented site in the library — the UDG
builders (``udg.grid.build``), the phase-1 MIS (``mis.first_fit``),
both WAF phases (``waf.phase1``/``waf.phase2``), the Section IV greedy
(``greedy.phase1``/``greedy.phase2``) — is already a fault point, with
zero changes to the instrumented code.

Three actions model the failure universe of a wireless sweep worker:

* ``"raise"`` — the site raises :class:`InjectedFault` (a software
  fault: bad input, assertion, resource error);
* ``"delay"`` — the site sleeps, driving per-cell timeouts (a stuck or
  slow node);
* ``"kill"`` — the worker process dies on the spot via ``os._exit``
  (a crash / ``kill -9`` — no exception handling, no cleanup, exactly
  like the real thing).

Typical use (see ``docs/robustness.md``)::

    plan = FaultPlan(seed=7, specs=(
        FaultSpec(site="greedy.phase2", action="raise", rate=0.3),
    ))
    report = run_cells(worker, cells, jobs=4, faults=plan, ...)

The CLI sweep mode accepts the same specs as strings
(``--inject-fault 'site=greedy.phase2;action=kill;scope=*seed=1*'``)
for chaos drills against a live checkpoint file.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from ..durations import check_duration
from ..obs.core import SpanHook

__all__ = [
    "FAULT_ACTIONS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_spec",
    "det_unit",
]

#: Supported injection actions.
FAULT_ACTIONS = ("raise", "delay", "kill")

#: Exit code used by the ``"kill"`` action (the conventional code of a
#: SIGKILL-terminated process, so crash handling can't tell the drill
#: from the real thing).
KILL_EXIT_CODE = 137


class InjectedFault(RuntimeError):
    """The exception raised by a ``"raise"``-action fault."""


def det_unit(*parts: object) -> float:
    """A deterministic uniform value in ``[0, 1)`` from ``parts``.

    SHA-256 over the ``repr`` of the parts — stable across processes,
    Python versions and ``PYTHONHASHSEED``, unlike built-in ``hash()``.
    Shared by the injector (fire/skip decisions) and the retry backoff
    jitter (:meth:`repro.reliability.runner.RetryPolicy.delay`).
    """
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where, what, and how often.

    Attributes:
        site: ``fnmatch`` pattern over span names (``"waf.*"``,
            ``"greedy.phase2"``).
        action: one of :data:`FAULT_ACTIONS`.
        rate: probability of firing per matching occurrence (decided
            deterministically per ``(seed, scope, site, occurrence)``).
        at: when given, fire only on these 0-based occurrence indices
            of the site within one cell (``rate`` still applies).
        scope: ``fnmatch`` pattern over the cell scope key — restricts
            the fault to particular cells (``"*seed=1*"``).
        delay: seconds slept by the ``"delay"`` action.
        max_fires: stop firing after this many hits per cell (``None``
            = unlimited).
    """

    site: str
    action: str
    rate: float = 1.0
    at: tuple[int, ...] | None = None
    scope: str = "*"
    delay: float = 0.05
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"action must be one of {FAULT_ACTIONS}, got {self.action!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate!r}")
        check_duration("delay", self.delay, zero_ok=True)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules.

    Picklable (it crosses the process boundary into sweep workers);
    :meth:`injector` builds the per-cell hook with the cell's scope key
    mixed into every decision, so two cells under the same plan fail
    independently yet each cell fails identically on every rerun.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    @property
    def has_kill(self) -> bool:
        """Whether any rule can kill the worker process (such plans
        force process isolation in the runner)."""
        return any(spec.action == "kill" for spec in self.specs)

    def injector(self, scope: str = "") -> "FaultInjector":
        """A fresh injector for one cell (occurrence counts start at 0)."""
        return FaultInjector(self, scope)


class FaultInjector(SpanHook):
    """A span hook firing the plan's faults at matching trace sites.

    Attach to a registry (``OBS.add_hook(injector)``) with the registry
    *enabled*; hooks never run while it is disabled.  When several
    hooks are attached the injector should be attached **first** so a
    raising fault fires before later hooks (e.g. an
    :class:`~repro.obs.events.EventLog`) have pushed their span state.

    :attr:`fired` records every hit as ``(site, occurrence, action)``,
    in order — the deterministic trace a chaos test asserts on.
    """

    __slots__ = ("plan", "scope", "fired", "_occurrences", "_spec_fires")

    def __init__(self, plan: FaultPlan, scope: str = ""):
        self.plan = plan
        self.scope = scope
        self.fired: list[tuple[str, int, str]] = []
        self._occurrences: dict[str, int] = {}
        self._spec_fires: dict[int, int] = {}

    def begin(self, name: str) -> None:
        occurrence = self._occurrences.get(name, 0)
        self._occurrences[name] = occurrence + 1
        for spec_index, spec in enumerate(self.plan.specs):
            if not fnmatchcase(name, spec.site):
                continue
            if not fnmatchcase(self.scope, spec.scope):
                continue
            if spec.at is not None and occurrence not in spec.at:
                continue
            if (
                spec.max_fires is not None
                and self._spec_fires.get(spec_index, 0) >= spec.max_fires
            ):
                continue
            if spec.rate < 1.0:
                u = det_unit(
                    self.plan.seed, self.scope, name, occurrence, spec_index
                )
                if u >= spec.rate:
                    continue
            self._spec_fires[spec_index] = self._spec_fires.get(spec_index, 0) + 1
            self._fire(spec, name, occurrence)
        return None

    def _fire(self, spec: FaultSpec, name: str, occurrence: int) -> None:
        self.fired.append((name, occurrence, spec.action))
        if spec.action == "delay":
            time.sleep(spec.delay)
        elif spec.action == "raise":
            raise InjectedFault(
                f"injected fault at {name!r} "
                f"(occurrence {occurrence}, scope {self.scope!r})"
            )
        elif spec.action == "kill":
            # A hard death: no exception propagation, no atexit, no
            # flushing — indistinguishable from `kill -9` to the parent.
            os._exit(KILL_EXIT_CODE)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI form: ``key=value`` pairs joined with ``;``.

    Example::

        site=greedy.phase2;action=kill;scope=*seed=1*;rate=1.0;at=0

    Keys mirror the :class:`FaultSpec` fields; ``at`` accepts a
    comma-separated index list.  Raises ``ValueError`` on unknown keys
    or malformed values.
    """
    fields: dict[str, object] = {}
    for pair in text.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"malformed fault spec entry {pair!r} (want key=value)")
        key = key.strip()
        value = value.strip()
        if key in ("site", "action", "scope"):
            fields[key] = value
        elif key in ("rate", "delay"):
            fields[key] = float(value)
        elif key == "max_fires":
            fields[key] = int(value)
        elif key == "at":
            fields[key] = tuple(int(v) for v in value.split(",") if v)
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    if "site" not in fields or "action" not in fields:
        raise ValueError("fault spec needs at least site=... and action=...")
    return FaultSpec(**fields)  # type: ignore[arg-type]
