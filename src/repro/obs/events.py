"""Structured span events: the ``repro.obs/event/v1`` JSONL stream.

Counters and timers (:mod:`repro.obs.core`) answer *how much*; the
event stream answers *when*.  An :class:`EventLog` attaches to a
:class:`~repro.obs.core.Registry` as a span hook, so every existing
``trace(...)`` / ``@traced`` site — the UDG builders, the phase-1 MIS,
both WAF phases, the Section IV greedy, the distributed protocols —
emits nested begin/end events with **zero new call sites** in the
instrumented code.

Each event is one JSON object on its own line:

* a **run header** opens every log::

      {"schema": "repro.obs/event/v1", "type": "run",
       "run": "<run-id>", "worker": 0, "seq": 0}

* a **begin** marks a span opening, with a monotonic timestamp
  relative to the log's creation and the parent span id (``null`` for
  roots)::

      {"type": "begin", "span": 0, "parent": null,
       "name": "greedy.phase2", "t": 0.000813, "worker": 0, "seq": 3}

* an **end** closes it, carrying the measured duration and the **delta
  of every registry counter that moved while the span was open** — the
  operational counts the paper's analysis charges, attributed to the
  phase that incurred them::

      {"type": "end", "span": 0, "name": "greedy.phase2",
       "t": 0.003501, "dur": 0.002688,
       "counters": {"gain.evaluations": 982, ...}, "worker": 0, "seq": 4}

* a **note** is an instantaneous structured observation with no
  duration — the reliability layer emits one per retry and per
  terminal cell failure (:meth:`repro.obs.core.Registry.note`)::

      {"type": "note", "name": "reliability.failure",
       "data": {"cell": "n=20;side=3.8;seed=1", "kind": "crash", ...},
       "t": 0.1102, "worker": 0, "seq": 7}

``seq`` is the event's position in its own log and ``worker`` the
producing worker's index (0 for a single-process run); together they
make :func:`merge_events` deterministic.  Timestamps come from
``perf_counter`` — comparable *within* a worker, not across workers.

Reading a log back::

    events = read_events("run.events.jsonl")
    for root in replay(events):          # the span forest
        print(root.name, root.duration, root.counters, len(root.children))

The CLI exposes the writer as ``--events-out PATH``
(``python -m repro T8 --events-out t8.jsonl``).  In experiments mode
each experiment records its own log, and the logs are interleaved
with :func:`merge_events` before writing, at any ``--jobs`` and under
every reliability flag.  See ``docs/observability.md`` §6.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

from .core import Registry, SpanHook
from .jsonl import jsonl_line, parse_jsonl

__all__ = [
    "EVENT_SCHEMA_ID",
    "EventLog",
    "SpanNode",
    "parse_events",
    "read_events",
    "validate_events",
    "merge_events",
    "write_events",
    "replay",
]

#: Version tag carried by every log's run header; bump on shape change.
EVENT_SCHEMA_ID = "repro.obs/event/v1"

_EVENT_TYPES = ("run", "begin", "end", "note")


def _default_run_id() -> str:
    return f"{os.getpid():x}-{_time.time_ns():x}"


class EventLog(SpanHook):
    """A span hook that records the ``repro.obs/event/v1`` stream.

    Attach with ``registry.add_hook(log)``; detach with
    ``registry.remove_hook(log)``.  Events accumulate in :attr:`events`
    (header first) and :meth:`write` dumps them as JSONL.

    Counter deltas are computed by snapshotting the registry's counter
    values at span begin and diffing at span end; only counters that
    moved appear in the ``end`` event.  Resetting the registry while a
    span is open therefore skews that span's deltas — the CLI never
    does this, but library users should finish open spans before
    calling ``reset()``.
    """

    __slots__ = ("registry", "run_id", "worker", "events", "_stack", "_next_span", "_t0")

    def __init__(
        self,
        registry: Registry,
        *,
        run_id: str | None = None,
        worker: int = 0,
    ):
        self.registry = registry
        self.run_id = _default_run_id() if run_id is None else run_id
        self.worker = worker
        self.events: list[dict] = [
            {
                "schema": EVENT_SCHEMA_ID,
                "type": "run",
                "run": self.run_id,
                "worker": worker,
                "seq": 0,
            }
        ]
        self._stack: list[tuple[int, dict]] = []
        self._next_span = 0
        self._t0 = perf_counter()

    # -- SpanHook protocol --------------------------------------------

    def begin(self, name: str) -> int:
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1][0] if self._stack else None
        self.events.append(
            {
                "type": "begin",
                "span": span_id,
                "parent": parent,
                "name": name,
                "t": perf_counter() - self._t0,
                "worker": self.worker,
                "seq": len(self.events),
            }
        )
        snapshot = {c.name: c.value for c in self.registry}
        self._stack.append((span_id, snapshot))
        return span_id

    def end(self, name: str, token: object, seconds: float) -> None:
        span_id, snapshot = self._stack.pop()
        deltas = {}
        for counter in self.registry:
            delta = counter.value - snapshot.get(counter.name, 0)
            if delta:
                deltas[counter.name] = delta
        self.events.append(
            {
                "type": "end",
                "span": span_id,
                "name": name,
                "t": perf_counter() - self._t0,
                "dur": seconds,
                "counters": deltas,
                "worker": self.worker,
                "seq": len(self.events),
            }
        )

    def note(self, name: str, data: dict) -> None:
        self.events.append(
            {
                "type": "note",
                "name": name,
                "data": data,
                "t": perf_counter() - self._t0,
                "worker": self.worker,
                "seq": len(self.events),
            }
        )

    # -- output -------------------------------------------------------

    def write(self, path: str | Path) -> None:
        write_events(self.events, path)


def write_events(events: Iterable[dict], path: str | Path) -> None:
    """Dump events (header(s) included) as one-object-per-line JSONL."""
    Path(path).write_text("".join(jsonl_line(ev) for ev in events))


def validate_events(events: Sequence[dict]) -> list[str]:
    """Schema-check a parsed event stream; returns violations.

    A valid stream starts with a ``run`` header whose ``schema`` is
    exactly :data:`EVENT_SCHEMA_ID` (merged streams may carry several
    headers), and every ``begin``/``end`` carries the fields documented
    in the module docstring.
    """
    errors: list[str] = []
    if not events:
        return ["event stream is empty (expected a run header)"]
    if events[0].get("type") != "run":
        errors.append("first event must be a 'run' header")
    for i, ev in enumerate(events):
        kind = ev.get("type")
        if kind not in _EVENT_TYPES:
            errors.append(f"event {i}: unknown type {kind!r}")
            continue
        if kind == "run":
            schema = ev.get("schema")
            if schema != EVENT_SCHEMA_ID:
                errors.append(
                    f"event {i}: unknown event schema {schema!r} "
                    f"(expected {EVENT_SCHEMA_ID!r})"
                )
            continue
        if kind == "note":
            for key in ("name", "t"):
                if key not in ev:
                    errors.append(f"event {i} (note): missing {key!r}")
            if not isinstance(ev.get("data", None), dict):
                errors.append(f"event {i} (note): 'data' must be an object")
            continue
        for key in ("span", "name", "t"):
            if key not in ev:
                errors.append(f"event {i} ({kind}): missing {key!r}")
        if kind == "begin" and "parent" not in ev:
            errors.append(f"event {i} (begin): missing 'parent'")
        if kind == "end":
            if not isinstance(ev.get("counters", None), dict):
                errors.append(f"event {i} (end): 'counters' must be an object")
            dur = ev.get("dur")
            if isinstance(dur, bool) or not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i} (end): 'dur' must be a number >= 0")
    return errors


def parse_events(text: str) -> list[dict]:
    """Parse an event log's text into a validated event list.

    Lines are split by :func:`repro.obs.jsonl.parse_jsonl`: a torn
    final line (a run killed mid-write) is dropped, a bad line anywhere
    else raises.

    Raises:
        ValueError: on a bad line before the last or a schema violation
            (including an unknown ``schema`` version in the run header).
    """
    events, _ = parse_jsonl(text)
    errors = validate_events(events)
    if errors:
        raise ValueError("invalid event log: " + "; ".join(errors))
    return events


def read_events(path: str | Path) -> list[dict]:
    """Load and validate an event log written by :class:`EventLog`."""
    return parse_events(Path(path).read_text())


def merge_events(logs: Sequence[Sequence[dict]]) -> list[dict]:
    """Deterministically interleave per-worker event logs.

    Workers are re-numbered by their position in ``logs`` (which the
    parallel runner keeps in input order, so the merge is reproducible
    run-to-run).  Events sort by ``(t, worker, seq)``; per-worker order
    is always preserved because each log's timestamps and sequence
    numbers are monotone.  Headers sort first (they carry no ``t``).

    Cross-worker timestamp order is *deterministic*, not a true global
    clock — each worker's ``t`` is relative to its own log creation.
    """
    merged: list[dict] = []
    for worker, log in enumerate(logs):
        for ev in log:
            ev = dict(ev)
            ev["worker"] = worker
            merged.append(ev)
    merged.sort(key=lambda ev: (ev.get("t", -1.0), ev["worker"], ev.get("seq", 0)))
    return merged


@dataclass
class SpanNode:
    """One replayed span: identity, timing, counter deltas, children."""

    name: str
    span_id: int
    worker: int
    parent: "SpanNode | None" = None
    start: float = 0.0
    duration: float | None = None
    counters: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    notes: list[dict] = field(default_factory=list)

    def walk(self):
        """This node, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def replay(events: Sequence[dict]) -> list[SpanNode]:
    """Rebuild the span forest from a (possibly merged) event stream.

    Nesting is reconstructed per worker — a begin on worker 1 never
    nests under an open span of worker 0, however the merge interleaved
    them.  Returns root spans in begin order; spans whose ``end`` never
    arrived (a crashed run) keep ``duration=None``.

    Raises:
        ValueError: when an ``end`` closes a span that is not the
            innermost open span of its worker — the stream is corrupt.
    """
    roots: list[SpanNode] = []
    stacks: dict[int, list[SpanNode]] = {}
    for ev in events:
        kind = ev.get("type")
        if kind == "begin":
            worker = ev.get("worker", 0)
            stack = stacks.setdefault(worker, [])
            node = SpanNode(
                name=ev["name"],
                span_id=ev["span"],
                worker=worker,
                parent=stack[-1] if stack else None,
                start=ev["t"],
            )
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        elif kind == "end":
            worker = ev.get("worker", 0)
            stack = stacks.setdefault(worker, [])
            if not stack or stack[-1].span_id != ev["span"]:
                raise ValueError(
                    f"event stream corrupt: end of span {ev['span']} "
                    f"(worker {worker}) does not match the open span"
                )
            node = stack.pop()
            node.duration = ev["dur"]
            node.counters = dict(ev.get("counters", {}))
        elif kind == "note":
            # A note attaches to its worker's innermost open span;
            # notes emitted outside any span are not part of the
            # forest (read them straight off the event list).
            worker = ev.get("worker", 0)
            stack = stacks.setdefault(worker, [])
            if stack:
                stack[-1].notes.append(
                    {"name": ev["name"], "t": ev["t"], **ev.get("data", {})}
                )
    return roots
