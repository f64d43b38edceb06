"""Property-based tests for dynamic CDS maintenance.

The invariant: after any legal sequence of joins and leaves, the
maintained backbone is a valid CDS of the current topology.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cds import DynamicCDS
from repro.geometry import Point
from repro.graphs import random_connected_udg


@st.composite
def churn_scripts(draw):
    """A seeded starting instance plus a list of churn decisions."""
    seed = draw(st.integers(min_value=0, max_value=500))
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["join", "leave"]),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=25,
        )
    )
    return seed, events


def apply_event(dynamic: DynamicCDS, kind: str, salt: int) -> None:
    rng = random.Random(salt)
    nodes = sorted(dynamic.graph.nodes())
    if kind == "leave" and len(nodes) > 4:
        try:
            dynamic.remove_node(rng.choice(nodes))
        except ValueError:
            pass  # would disconnect: the radio layer keeps the node
        return
    # join
    base = rng.choice(nodes)
    new = Point(base.x + rng.uniform(-0.8, 0.8), base.y + rng.uniform(-0.8, 0.8))
    if new in dynamic.graph:
        return
    in_range = [v for v in nodes if v.distance_to(new) <= 1.0]
    if in_range:
        dynamic.add_node(new, in_range)


class TestMaintenanceInvariant:
    @settings(max_examples=25, deadline=None)
    @given(churn_scripts())
    def test_backbone_always_valid(self, script):
        seed, events = script
        _, graph = random_connected_udg(15, 3.2, seed=seed, max_attempts=500)
        dynamic = DynamicCDS(graph)
        for kind, salt in events:
            apply_event(dynamic, kind, salt)
            assert dynamic.is_valid()

    @settings(max_examples=15, deadline=None)
    @given(churn_scripts())
    def test_rebuild_always_safe(self, script):
        seed, events = script
        _, graph = random_connected_udg(12, 2.9, seed=seed, max_attempts=500)
        dynamic = DynamicCDS(graph)
        for i, (kind, salt) in enumerate(events):
            apply_event(dynamic, kind, salt)
            if i % 5 == 4:
                dynamic.rebuild()
            assert dynamic.is_valid()
