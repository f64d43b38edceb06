"""Persistence: deployments and CDS results on disk.

A downstream user wants to pin down the exact instance a result came
from.  Deployments (point sets) are stored as two-column CSV; results
as JSON carrying the algorithm label, the node set and the phase split.
Round-tripping is exact: coordinates are written with ``repr`` so
``float`` survives bit-for-bit.  Any other coordinate (a numpy
scalar, say, whose ``repr`` names its type) is written as
``repr(float(v))``; result files keep every ``int`` and ``float``
subclass as ``json`` writes it.

A result file is byte for byte ``json.dumps(payload, indent=2) + "\n"``,
but the stdlib only has a C encoder for compact output: with ``indent``
it encodes in pure Python, a dict per backbone node.  So
:func:`save_result` writes each Point with two finite ``float``
coordinates from a fixed template (``float.__repr__`` is what ``json``
writes for a finite float) and hands every other node, the algorithm
label and ``meta`` to ``json.dumps``, its newlines shifted to the
nesting depth (``json`` escapes any newline inside a string, so each
one it emits is layout).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .geometry.point import Point
from .cds.base import CDSResult

__all__ = [
    "save_points",
    "load_points",
    "save_result",
    "load_result",
]


def save_points(points: Iterable[Point], path: str | Path) -> None:
    """Write a deployment as ``x,y`` CSV (with header)."""
    lines = ["x,y"]
    for p in points:
        x, y = p.x, p.y
        if type(x) is not float and type(x) is not int:
            x = float(x)
        if type(y) is not float and type(y) is not int:
            y = float(y)
        lines.append(f"{x!r},{y!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_points(path: str | Path) -> list[Point]:
    """Read a deployment written by :func:`save_points`.

    A field with a digit-group underscore (``0_5``) is malformed:
    ``float()`` would read it as another number, and :func:`save_points`
    never writes one.

    Raises:
        ValueError: on a malformed file.
    """
    text = Path(path).read_text().strip()
    lines = text.splitlines()
    if not lines or lines[0].strip().lower() != "x,y":
        raise ValueError(f"{path}: expected 'x,y' header")
    points: list[Point] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns")
        if "_" in line:
            raise ValueError(f"{path}:{lineno}: underscore in a coordinate: {line!r}")
        try:
            points.append(Point(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return points


def _json_coord(v):
    """``v`` if ``json`` writes it as a number (any ``int`` or ``float``),
    else ``float(v)``: numpy scalars other than ``float64`` are not."""
    return v if isinstance(v, (int, float)) else float(v)


def _point_to_obj(node) -> object:
    if isinstance(node, Point):
        return {"x": _json_coord(node.x), "y": _json_coord(node.y)}
    return node


def _obj_to_node(obj: object):
    if isinstance(obj, dict) and set(obj) == {"x", "y"}:
        return Point(float(obj["x"]), float(obj["y"]))
    if isinstance(obj, list):  # JSON has no tuples
        return tuple(obj)
    return obj


#: One Point in a node list, as ``json.dumps(..., indent=2)`` lays it
#: out two levels deep; ``%r`` of a ``float`` is ``float.__repr__``.
_POINT = '    {\n      "x": %r,\n      "y": %r\n    }'


def _node_list(nodes) -> str:
    """A node list as ``json.dumps`` writes it for a result's top-level key."""
    if not nodes:
        return "[]"
    items = []
    for v in nodes:
        if type(v) is Point:
            x, y = v.x, v.y
            # x - x == 0.0 is False for inf and nan, which json spells
            # Infinity and NaN.
            if (
                type(x) is float
                and type(y) is float
                and x - x == 0.0
                and y - y == 0.0
            ):
                items.append(_POINT % (x, y))
                continue
        obj = json.dumps(_point_to_obj(v), indent=2)
        items.append("    " + obj.replace("\n", "\n    "))
    return "[\n" + ",\n".join(items) + "\n  ]"


def save_result(result: CDSResult, path: str | Path) -> None:
    """Write a :class:`CDSResult` as JSON.

    ``meta`` is stored only where JSON-serializable; unserializable
    entries are dropped (they are run diagnostics, not results).
    """
    meta = {}
    for key, value in result.meta.items():
        try:
            json.dumps(value)
        except TypeError:
            continue
        meta[key] = value
    text = "".join(
        [
            '{\n  "algorithm": ',
            json.dumps(result.algorithm),
            ',\n  "nodes": ',
            _node_list(sorted(result.nodes)),
            ',\n  "dominators": ',
            _node_list(result.dominators),
            ',\n  "connectors": ',
            _node_list(result.connectors),
            ',\n  "meta": ',
            json.dumps(meta, indent=2).replace("\n", "\n  "),
            "\n}\n",
        ]
    )
    Path(path).write_text(text)


def load_result(path: str | Path) -> CDSResult:
    """Read a result written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text())
    return CDSResult(
        algorithm=payload["algorithm"],
        nodes=frozenset(_obj_to_node(v) for v in payload["nodes"]),
        dominators=tuple(_obj_to_node(v) for v in payload["dominators"]),
        connectors=tuple(_obj_to_node(v) for v in payload["connectors"]),
        meta=dict(payload.get("meta", {})),
    )
