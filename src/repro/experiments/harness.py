"""Experiment harness: registry, tables, and the pass/fail contract.

Each experiment module registers a function reproducing one paper
artifact (a theorem, figure, or implicit comparison).  An experiment
returns an :class:`ExperimentResult` holding one or more plain-text
tables — the "same rows the paper reports" — plus a ``passed`` flag
meaning *the paper's claimed shape held* (bounds respected, tightness
achieved, orderings as claimed).

Run everything from the command line::

    python -m repro --list
    python -m repro T8 CMP
    python -m repro --all
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "Table",
    "ExperimentResult",
    "experiment",
    "get_experiment",
    "all_experiments",
]


@dataclass
class Table:
    """A plain-text table with an optional CSV escape hatch."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """Fixed-width rendering."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        out = io.StringIO()
        out.write(f"== {self.title} ==\n")
        out.write("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        out.write("\n")
        out.write("  ".join("-" * w for w in widths))
        out.write("\n")
        for row in cells:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            out.write("\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = [",".join(str(h) for h in self.headers)]
        for row in self.rows:
            lines.append(",".join(_fmt(c) for c in row))
        return "\n".join(lines) + "\n"

    # -- serialisation (checkpoint ledger) ----------------------------

    def to_json_obj(self) -> dict:
        """A JSON-ready dump whose round-trip renders identically.

        Non-primitive cells are stringified — exactly what
        :meth:`render` and :meth:`to_csv` would do to them anyway, so
        a table restored from a sweep checkpoint prints byte-for-byte
        the same (floats are kept as floats and re-formatted on
        render).
        """
        return {
            "title": self.title,
            "headers": [_json_cell(h) for h in self.headers],
            "rows": [[_json_cell(c) for c in row] for row in self.rows],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Table":
        table = cls(title=obj["title"], headers=list(obj["headers"]))
        table.rows = [list(row) for row in obj["rows"]]
        return table


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def _json_cell(cell: object) -> object:
    """JSON-safe cell: primitives pass through, anything else as str.

    ``bool`` is checked before ``int`` only for clarity — both are
    JSON-native; the ``str()`` fallback matches :func:`_fmt`'s
    rendering of exotic cells, so serialisation never changes output.
    """
    if cell is None or isinstance(cell, (bool, int, float, str)):
        return cell
    return str(cell)


@dataclass
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment_id: str
    title: str
    tables: list[Table]
    passed: bool
    notes: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"[{self.experiment_id}] {self.title} — {status}"]
        if self.notes:
            parts.append(self.notes)
        parts.extend(t.render() for t in self.tables)
        return "\n\n".join(parts)

    # -- serialisation (checkpoint ledger) ----------------------------

    def to_json_obj(self) -> dict:
        """JSON-ready form for the sweep checkpoint ledger; the
        round-trip preserves :meth:`render` output exactly (see
        :meth:`Table.to_json_obj`)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "passed": self.passed,
            "notes": self.notes,
            "tables": [t.to_json_obj() for t in self.tables],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentResult":
        return cls(
            experiment_id=obj["experiment_id"],
            title=obj["title"],
            tables=[Table.from_json_obj(t) for t in obj["tables"]],
            passed=obj["passed"],
            notes=obj.get("notes", ""),
        )


_REGISTRY: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {}


def experiment(experiment_id: str, title: str):
    """Decorator registering an experiment under its paper-artifact id."""

    def wrap(fn: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id}")
        _REGISTRY[experiment_id] = (title, fn)
        fn.experiment_id = experiment_id  # type: ignore[attr-defined]
        fn.title = title  # type: ignore[attr-defined]
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment by id (case-insensitive)."""
    _load_all_modules()
    for key, (_, fn) in _REGISTRY.items():
        if key.lower() == experiment_id.lower():
            return fn
    raise KeyError(
        f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
    )


def all_experiments() -> dict[str, tuple[str, Callable[..., ExperimentResult]]]:
    """All registered experiments keyed by id."""
    _load_all_modules()
    return dict(_REGISTRY)


def _load_all_modules() -> None:
    """Import every experiment module so registrations run."""
    from . import (  # noqa: F401
        exp_adversarial,
        exp_alpha_gamma,
        exp_appendix,
        exp_broadcast,
        exp_compare,
        exp_density,
        exp_funke_conjecture,
        exp_lemmas,
        exp_maintenance,
        exp_messages,
        exp_neighborhood_packing,
        exp_ratio_greedy,
        exp_ratio_waf,
        exp_robustness,
        exp_star_packing,
        exp_stats,
        exp_tightness,
        exp_variants,
    )
