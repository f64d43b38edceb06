"""Property suite for the fault-tolerant variants and the full registry.

Three invariants over random connected UDGs:

* every solver in the CLI registry — the paper algorithms, the
  baselines, the distributed renditions, and the new fault-tolerant
  variants — emits a set passing its structural validator;
* the kernelized solvers are bit-identical across the indexed / bitset
  / array kernels;
* a ``(2, m)`` output survives the death of any single backbone node:
  what remains is still a connected dominating set of the whole graph
  (the acceptance property of this PR, checked literally with
  :func:`repro.graphs.properties.survives_node_removal`).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cds import mfold_2conn_cds, mfold_greedy_cds
from repro.graphs import (
    is_k_connected,
    is_m_fold_cds,
    random_connected_udg,
    survives_node_removal,
)
from repro.graphs.biconnectivity import is_biconnected
from repro.solvers import solver_registry, takes


def udg_instances(min_n=2, max_n=16, density=0.8):
    """Strategy: small connected random UDGs (seeded, so shrinkable)."""
    return st.tuples(
        st.integers(min_value=min_n, max_value=max_n),
        st.integers(min_value=0, max_value=10_000),
    ).map(
        lambda t: random_connected_udg(
            t[0], side=max(1.0, density * t[0] ** 0.5), seed=t[1], max_attempts=500
        )[1]
    )


class TestRegistryValidity:
    @settings(max_examples=15, deadline=None)
    @given(udg_instances())
    def test_every_registry_solver_emits_valid_set(self, g):
        for name, solver in sorted(solver_registry().items()):
            if name == "mfold-2conn" and len(g) >= 3 and not is_k_connected(g, 2):
                # no (2,m)-CDS exists; the solver must say so, not
                # return something broken
                with pytest.raises(ValueError):
                    solver(g)
                continue
            result = solver(g)
            assert result.is_valid(g), name
            if takes(solver, "m"):
                assert is_m_fold_cds(g, result.nodes, result.meta["m"]), name

    @settings(max_examples=10, deadline=None)
    @given(udg_instances(min_n=4))
    def test_kernelized_solvers_bit_identical(self, g):
        for name, solver in sorted(solver_registry().items()):
            if not takes(solver, "kernel"):
                continue
            if name == "mfold-2conn" and len(g) >= 3 and not is_k_connected(g, 2):
                continue
            outputs = {
                kernel: solver(g, kernel=kernel)
                for kernel in ("indexed", "bitset", "array")
            }
            traces = {
                k: (r.dominators, r.connectors) for k, r in outputs.items()
            }
            assert traces["indexed"] == traces["bitset"] == traces["array"], name


class TestMfoldInvariants:
    @settings(max_examples=20, deadline=None)
    @given(udg_instances(), st.integers(min_value=1, max_value=4))
    def test_mfold_greedy_is_m_fold_cds(self, g, m):
        result = mfold_greedy_cds(g, m=m)
        assert result.is_valid(g)
        assert is_m_fold_cds(g, result.nodes, m)

    @settings(max_examples=20, deadline=None)
    @given(udg_instances())
    def test_m1_never_larger_than_m2(self, g):
        assert mfold_greedy_cds(g, m=1).size <= mfold_greedy_cds(g, m=2).size


class Test2ConnSurvivability:
    @settings(max_examples=15, deadline=None)
    @given(udg_instances(min_n=4, max_n=18, density=0.62))
    def test_survives_any_single_backbone_death(self, g):
        assume(is_k_connected(g, 2))
        result = mfold_2conn_cds(g, m=2)
        assert result.is_valid(g)
        assert is_m_fold_cds(g, result.nodes, 2)
        assert is_biconnected(g.subgraph(set(result.nodes)))
        # the acceptance criterion, stated literally: remove any one
        # backbone node and the rest still connectedly dominates G
        assert survives_node_removal(g, result.nodes, m=1)

    @settings(max_examples=15, deadline=None)
    @given(udg_instances(min_n=4, max_n=18, density=0.62), st.integers(2, 3))
    def test_augmentation_only_adds(self, g, m):
        assume(is_k_connected(g, 2))
        base = mfold_greedy_cds(g, m=m)
        hardened = mfold_2conn_cds(g, m=m)
        assert set(base.nodes) <= set(hardened.nodes)
        assert hardened.meta["augmentation_cost"] == hardened.size - base.size
