"""Tests for deployment / result persistence."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cds import CDSResult, greedy_connector_cds, waf_cds
from repro.geometry import Point
from repro.graphs import random_connected_udg, unit_disk_graph
from repro.io import (
    _point_to_obj,
    load_points,
    load_result,
    save_points,
    save_result,
)

DATA = Path(__file__).parent / "data"


def oracle_result_text(result):
    """What :func:`save_result` writes: the stdlib's indent-2 encoding
    of the whole payload (the writer's original one-liner)."""
    meta = {}
    for key, value in result.meta.items():
        try:
            json.dumps(value)
        except TypeError:
            continue
        meta[key] = value
    payload = {
        "algorithm": result.algorithm,
        "nodes": [_point_to_obj(v) for v in sorted(result.nodes)],
        "dominators": [_point_to_obj(v) for v in result.dominators],
        "connectors": [_point_to_obj(v) for v in result.connectors],
        "meta": meta,
    }
    return json.dumps(payload, indent=2) + "\n"


class TestPointsRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        pts, _ = random_connected_udg(15, 3.0, seed=1)
        path = tmp_path / "deploy.csv"
        save_points(pts, path)
        assert load_points(path) == pts

    def test_topology_survives_roundtrip(self, tmp_path):
        pts, g = random_connected_udg(20, 4.0, seed=2)
        path = tmp_path / "deploy.csv"
        save_points(pts, path)
        g2 = unit_disk_graph(load_points(path))
        assert {frozenset(e) for e in g.edges()} == {
            frozenset(e) for e in g2.edges()
        }

    def test_empty_deployment(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_points([], path)
        assert load_points(path) == []

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            load_points(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0\n")
        with pytest.raises(ValueError):
            load_points(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\nfoo,bar\n")
        with pytest.raises(ValueError):
            load_points(path)

    @pytest.mark.parametrize("row", ["0_5,0", "1,2_0", "1_000.5,3", "1e1_0,0"])
    def test_underscore_numerals_rejected(self, tmp_path, row):
        # float() reads "0_5" as 5.0: the deployment would be silently
        # changed, not rejected.
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n0,0\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: underscore"):
            load_points(path)

    def test_underscore_numeral_is_a_cli_input_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\n0_5,0\n")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("cannot read deployment: ")

    def test_roundtrip_bytes_unchanged(self, tmp_path):
        pts, _ = random_connected_udg(40, 5.0, seed=3)
        pts += [Point(-0.0, 1e-300), Point(5e20, -7.0), Point(1.5, 2.0)]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_points(pts, first)
        save_points(load_points(first), second)
        assert second.read_bytes() == first.read_bytes()


class TestResultRoundtrip:
    def test_point_node_result(self, tmp_path):
        _, g = random_connected_udg(18, 3.8, seed=3)
        result = greedy_connector_cds(g)
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.algorithm == result.algorithm
        assert back.nodes == result.nodes
        assert set(back.dominators) == set(result.dominators)
        assert back.is_valid(g)

    def test_int_node_result(self, tmp_path, path5):
        from repro.cds import CDSResult

        result = CDSResult(algorithm="manual", nodes=frozenset([1, 2, 3]))
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.nodes == frozenset([1, 2, 3])
        assert back.is_valid(path5)

    def test_meta_json_serializable_kept(self, tmp_path, path5):
        from repro.cds import CDSResult

        result = CDSResult(
            algorithm="manual",
            nodes=frozenset([1, 2, 3]),
            meta={"note": "hello", "weird": object()},
        )
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.meta == {"note": "hello"}  # unserializable dropped


@pytest.mark.parametrize("scalar", [np.float64, np.float32, np.int64])
def test_numpy_scalar_coordinates_roundtrip(tmp_path, scalar):
    pts = [Point(scalar(3), scalar(1.5)), Point(scalar(-2), 0.25)]
    csv = tmp_path / "deploy.csv"
    save_points(pts, csv)
    assert load_points(csv) == pts
    result = CDSResult(algorithm="manual", nodes=frozenset(pts), dominators=tuple(pts))
    out = tmp_path / "result.json"
    save_result(result, out)
    back = load_result(out)
    assert back.nodes == result.nodes
    assert back.dominators == result.dominators
    assert out.read_text() == oracle_result_text(result)


def test_int_and_float_coordinates_written_as_repr(tmp_path):
    csv = tmp_path / "deploy.csv"
    save_points([Point(3, 0.1), Point(-0.0, 1e-300)], csv)
    assert csv.read_text() == "x,y\n3,0.1\n-0.0,1e-300\n"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
#: Coordinates that leave the writer's template path (non-finite,
#: bool, int) or sit on its edge (-0.0); ``st.floats`` alone draws
#: them too rarely for a run to meet each.
_SPECIAL = st.sampled_from([-0.0, math.inf, -math.inf, math.nan, True, 7])
_COORDS = st.one_of(_FLOATS, _SPECIAL, st.integers(-(10**20), 10**20))
_POINTS = st.builds(Point, _COORDS, _COORDS)
_TEXT = st.text(alphabet=st.sampled_from('ab"\\\n\t\u00e9\u2603\U0001f600 /'))
#: Node kinds a result can hold; each node set is one kind, so it sorts.
_NODE_KINDS = [
    _POINTS,
    st.builds(Point, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.integers(),
    st.tuples(st.integers(), st.integers()),
    _TEXT,
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_META = st.dictionaries(
    st.one_of(_TEXT, st.integers()),
    st.one_of(
        _JSON,
        st.tuples(st.integers(), _FLOATS),
        _POINTS,
        st.builds(object),
        st.frozensets(st.integers(), max_size=2),
    ),
    max_size=4,
)


@st.composite
def results(draw):
    """A result over one node kind (so its node set sorts), its nodes
    split into overlapping dominator and connector lists."""
    nodes = draw(st.lists(draw(st.sampled_from(_NODE_KINDS)), max_size=12))
    order = draw(st.permutations(nodes))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(order)))
        start = draw(st.integers(0, cut))
        dominators, connectors = order[:cut], order[start:]
    else:
        dominators = connectors = []
    return CDSResult(
        algorithm=draw(_TEXT),
        nodes=frozenset(nodes),
        dominators=tuple(dominators),
        connectors=tuple(connectors),
        meta=draw(_META),
    )


class TestResultBytes:
    """``save_result`` writes exactly the stdlib's indent-2 encoding."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(results())
    def test_matches_stdlib_encoder(self, tmp_path, result):
        out = tmp_path / "result.json"
        save_result(result, out)
        assert out.read_bytes() == oracle_result_text(result).encode("ascii")

    @pytest.mark.parametrize(
        "nodes",
        [
            [Point(math.inf, 1.0), Point(-math.inf, -0.0), Point(math.nan, 2.0)],
            [Point(1, 2), Point(1.0, 2), Point(True, 0.5)],
            [1, -7, 10**30],
            [(1, "a\nb"), (2, '"q"'), (3, "\u00e9\U0001f600")],
            [],
        ],
    )
    def test_edge_nodes(self, tmp_path, nodes):
        result = CDSResult(
            algorithm='x"\n\u2603',
            nodes=frozenset(nodes),
            dominators=tuple(nodes),
            connectors=tuple(reversed(nodes)),
            meta={"k\nk": [1.5, {"n": None}], 3: -0.0, "p": Point(1.0, 2.0)},
        )
        out = tmp_path / "result.json"
        save_result(result, out)
        assert out.read_text() == oracle_result_text(result)

    def test_nan_x_nodes_in_either_set_order(self, tmp_path):
        # Two Points sharing one NaN object as x: a tuple sort key finds
        # the x's equal (by identity) and orders by y, Point.__lt__ does
        # not.  The set's order follows hash(nan), so sixteen NaN objects
        # give both orders.
        out = tmp_path / "result.json"
        nans = [float("nan") for _ in range(16)]
        for nan in nans:
            nodes = [Point(nan, 14.0), Point(nan, 0.0)]
            result = CDSResult(
                algorithm="",
                nodes=frozenset(nodes),
                dominators=tuple(nodes),
                connectors=(),
            )
            save_result(result, out)
            assert out.read_text() == oracle_result_text(result)

    def test_empty_result(self, tmp_path):
        out = tmp_path / "result.json"
        save_result(CDSResult(algorithm="none", nodes=frozenset()), out)
        assert out.read_text() == (
            '{\n  "algorithm": "none",\n  "nodes": [],\n  "dominators": [],'
            '\n  "connectors": [],\n  "meta": {}\n}\n'
        )

    def test_unserializable_node_raises_before_writing(self, tmp_path):
        out = tmp_path / "result.json"
        node = object()
        result = CDSResult(algorithm="a", nodes=frozenset([node]), connectors=(node,))
        with pytest.raises(TypeError):
            save_result(result, out)
        assert not out.exists()


class TestGoldenResults:
    """Result files of a seeded n = 60 deployment, as the stdlib
    encoder wrote them before the template writer."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_connected_udg(60, 6.0, seed=7)[1]

    @pytest.mark.parametrize(
        "name, solver", [("greedy", greedy_connector_cds), ("waf", waf_cds)]
    )
    def test_solver_result_reproduced(self, tmp_path, graph, name, solver):
        out = tmp_path / "result.json"
        save_result(solver(graph), out)
        assert out.read_bytes() == (DATA / f"result-n60-{name}.json").read_bytes()

    @pytest.mark.parametrize("name", ["greedy", "waf"])
    def test_reloaded_result_rewritten(self, tmp_path, name):
        golden = DATA / f"result-n60-{name}.json"
        out = tmp_path / "result.json"
        save_result(load_result(golden), out)
        assert out.read_bytes() == golden.read_bytes()


class TestCLICSVExport:
    def test_csv_written(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["F1F2", "--csv", str(tmp_path / "out")]) == 0
        files = sorted((tmp_path / "out").glob("*.csv"))
        assert len(files) == 2
        assert files[0].read_text().startswith("instance,")
