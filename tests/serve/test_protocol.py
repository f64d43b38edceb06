"""Schema tests for the serve wire protocol (request/response v1)."""

import pytest

from repro.experiments.instances import default_side
from repro.serve import (
    REQUEST_SCHEMA_ID,
    RESPONSE_SCHEMA_ID,
    control_request,
    normalize_request,
    solve_request,
    validate_request,
    validate_response,
)


class TestBuilders:
    def test_spec_request_validates(self):
        req = solve_request("r-1", n=60, seed=2)
        assert validate_request(req) == []
        assert req["schema"] == REQUEST_SCHEMA_ID
        assert req["instance"] == {"kind": "spec", "n": 60, "seed": 2}

    def test_edges_request_validates(self):
        req = solve_request("r-1", edges=[[0, 1], [1, 2]], algorithm="waf")
        assert validate_request(req) == []
        assert req["instance"]["nodes"] == 3  # inferred from max endpoint

    def test_nodes_override(self):
        req = solve_request("r-1", edges=[[0, 1]], nodes=5)
        assert req["instance"]["nodes"] == 5

    def test_exactly_one_instance_form(self):
        with pytest.raises(ValueError):
            solve_request("r-1")
        with pytest.raises(ValueError):
            solve_request("r-1", n=10, edges=[[0, 1]])

    def test_control_requests(self):
        for op in ("ping", "stats", "shutdown"):
            req = control_request("c-1", op)
            assert validate_request(req) == []
        with pytest.raises(ValueError):
            control_request("c-1", "solve")
        with pytest.raises(ValueError):
            control_request("c-1", "nope")


class TestValidateRequest:
    def test_rejects_non_object(self):
        assert validate_request([1, 2]) != []
        assert validate_request("hi") != []

    def test_rejects_wrong_schema(self):
        req = solve_request("r-1", n=10)
        req["schema"] = "other/v9"
        assert any("schema" in e for e in validate_request(req))

    def test_rejects_bad_id(self):
        req = solve_request("r-1", n=10)
        req["id"] = ""
        assert any("id" in e for e in validate_request(req))
        req["id"] = 7
        assert any("id" in e for e in validate_request(req))

    def test_rejects_unknown_op(self):
        req = solve_request("r-1", n=10)
        req["op"] = "fly"
        assert any("op" in e for e in validate_request(req))

    @pytest.mark.parametrize(
        "patch",
        [
            {"n": 0},
            {"n": 2.5},
            {"n": True},
            {"seed": "x"},
            {"side": 0},
            {"side": -1.0},
            {"side": float("inf")},
        ],
    )
    def test_rejects_bad_spec_fields(self, patch):
        req = solve_request("r-1", n=10, side=3.0)
        req["instance"].update(patch)
        assert validate_request(req) != []

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 0]],            # self-loop
            [[0, 1, 2]],         # not a pair
            [[0, 9]],            # endpoint >= nodes
            [[-1, 0]],           # negative id
            "not-a-list",
        ],
    )
    def test_rejects_bad_edges(self, edges):
        req = solve_request("r-1", edges=[[0, 1]], nodes=3)
        req["instance"]["edges"] = edges
        assert validate_request(req) != []

    def test_rejects_bad_kernel_and_cache(self):
        req = solve_request("r-1", n=10)
        req["kernel"] = "gpu"
        assert any("kernel" in e for e in validate_request(req))
        for kernel in ("auto", "indexed", "bitset", "array"):
            req["kernel"] = kernel
            assert validate_request(req) == []
        req = solve_request("r-1", n=10)
        req["cache"] = "yes"
        assert any("cache" in e for e in validate_request(req))


class TestNormalize:
    def test_applies_density_default_side(self):
        norm = normalize_request(solve_request("r-1", n=60))
        assert norm["instance"]["side"] == default_side(60)

    def test_side_cast_to_float(self):
        norm = normalize_request(solve_request("r-1", n=60, side=6))
        assert norm["instance"]["side"] == 6.0
        assert isinstance(norm["instance"]["side"], float)

    def test_canonicalises_edges(self):
        a = normalize_request(
            solve_request("a", edges=[[2, 1], [0, 1], [1, 2]], nodes=3)
        )
        b = normalize_request(
            solve_request("b", edges=[[1, 0], [1, 2]], nodes=3)
        )
        assert a["instance"]["edges"] == b["instance"]["edges"]
        assert a["instance"]["edges"] == [[0, 1], [1, 2]]

    def test_raises_listing_violations(self):
        req = solve_request("r-1", n=10)
        req["instance"]["n"] = 0
        with pytest.raises(ValueError, match="instance.n"):
            normalize_request(req)

    def test_control_passthrough(self):
        norm = normalize_request(control_request("c-1", "ping"))
        assert norm == {
            "schema": REQUEST_SCHEMA_ID,
            "id": "c-1",
            "op": "ping",
        }


class TestValidateResponse:
    def _ok(self):
        return {
            "schema": RESPONSE_SCHEMA_ID,
            "id": "r-1",
            "status": "ok",
            "result": {
                "algorithm": "greedy-connector",
                "cds_size": 5,
                "dominators": 3,
                "connectors": 2,
                "counters": {},
            },
            "fingerprint": "ab" * 8,
            "cached": False,
            "batch": 1,
            "elapsed": 0.01,
        }

    def test_ok_solve_accepted(self):
        assert validate_response(self._ok()) == []

    def test_error_accepted_and_exclusive(self):
        err = {
            "schema": RESPONSE_SCHEMA_ID,
            "id": None,
            "status": "error",
            "error": {"type": "ProtocolError", "message": "bad"},
        }
        assert validate_response(err) == []
        err["result"] = {}
        assert any("must not carry" in e for e in validate_response(err))

    def test_ok_must_not_carry_error(self):
        resp = self._ok()
        resp["error"] = {"type": "X", "message": "y"}
        assert validate_response(resp) != []

    @pytest.mark.parametrize(
        "patch",
        [
            {"result": None},
            {"fingerprint": 3},
            {"cached": "no"},
            {"batch": -1},
            {"batch": True},
            {"elapsed": -0.1},
            {"status": "maybe"},
        ],
    )
    def test_rejects_broken_ok_fields(self, patch):
        resp = self._ok()
        resp.update(patch)
        assert validate_response(resp) != []

    def test_control_ok_skips_result_checks(self):
        resp = {
            "schema": RESPONSE_SCHEMA_ID,
            "id": "c-1",
            "op": "ping",
            "status": "ok",
        }
        assert validate_response(resp) == []
