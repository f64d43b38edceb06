"""Distributed substrate: synchronous simulator and the CDS protocols.

Message-passing renditions of the paper's setting: leader election,
BFS-tree construction, the rank-based MIS election of [10], the
Section III tree-parent connector protocol, and a leader-coordinated
Section IV max-gain connector protocol — all with message/round
accounting.

Every protocol runs on the batched round engine
(:class:`~repro.distributed.engine.BatchedSimulator`: per-node inbox
batching, active-set scheduling, kernel-backed topology), built through
:func:`make_simulator`.  The per-message reference :class:`Simulator`
stays public as the simple oracle the lockstep equivalence suite pins
the batched engine against, bit for bit.  The MIS election's
node-priority order is pluggable via ``priority=`` /
:func:`make_priority`.
"""

from .simulator import (
    Context,
    Message,
    NodeProcess,
    RadioTopology,
    SimMetrics,
    Simulator,
)
from .engine import BatchedSimulator, make_simulator
from .leader import LeaderNode, elect_leader
from .bfs_tree import BFSNode, DistributedTree, build_bfs_tree
from .mis_protocol import PRIORITIES, MISNode, elect_mis, make_priority
from .luby import LubyNode, luby_mis
from .maintenance_protocol import distributed_join
from .traffic import TrafficStats, run_traffic
from .cds_protocol import (
    convergecast_max,
    distributed_greedy_cds,
    distributed_waf_cds,
    flood_min_labels,
    flood_value,
)

__all__ = [
    "Context",
    "Message",
    "NodeProcess",
    "RadioTopology",
    "SimMetrics",
    "Simulator",
    "BatchedSimulator",
    "make_simulator",
    "LeaderNode",
    "elect_leader",
    "BFSNode",
    "DistributedTree",
    "build_bfs_tree",
    "PRIORITIES",
    "MISNode",
    "elect_mis",
    "make_priority",
    "convergecast_max",
    "distributed_greedy_cds",
    "distributed_waf_cds",
    "flood_min_labels",
    "flood_value",
    "LubyNode",
    "luby_mis",
    "distributed_join",
    "TrafficStats",
    "run_traffic",
]
