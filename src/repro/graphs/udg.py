"""Unit-disk graphs.

The communication topology of a wireless ad hoc network with all
transmission radii normalized to one: nodes are planar points, and two
nodes are adjacent iff their Euclidean distance is at most one
(Section I of the paper).

Two builders are provided: the obvious quadratic one and a
grid-bucketed one that only tests pairs in neighboring buckets —
expected linear time for bounded-density deployments, which is what
makes the larger benchmark sweeps feasible.  A quasi-UDG variant
(edges certain below an inner radius, absent above 1, arbitrary —
here: pseudorandom — in between) is included for robustness
experiments, since real radios are not perfect disks.

Every builder rejects duplicate points (two radios at identical
coordinates collapse into one UDG node, corrupting size accounting) and
non-finite coordinates, and, when :data:`repro.obs.OBS` is enabled,
reports ``udg.<builder>.pairs_tested`` vs ``udg.<builder>.edges_emitted``
— the quantities that make the naive-vs-grid trade-off measurable
instead of folklore.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..geometry.point import EPS, Point
from ..obs import OBS, trace
from .graph import Graph
from .indexed import IndexedGraph

__all__ = [
    "unit_disk_graph",
    "unit_disk_graph_naive",
    "unit_disk_graph_vectorized",
    "quasi_unit_disk_graph",
    "communication_radius_graph",
]

#: Below this node count the grid builder dispatches to the all-pairs
#: scan: the bucket machinery (hashing cell keys, neighbor lookups)
#: costs more than the pair tests it avoids (``BENCH_baseline.json``
#: measured grid ~1.4x slower than naive at n=20; the two cross over
#: around n≈30 at benchmark densities).
GRID_SMALL_N = 32

#: At and above this node count :func:`unit_disk_graph` dispatches to
#: :func:`unit_disk_graph_vectorized`: per-pair interpreted loops stop
#: being viable around the same size the array kernel takes over
#: solving (:data:`repro.graphs.backend.ARRAY_AUTO_N`), and the
#: vectorized builder's numpy setup is amortized well before that.
GRID_VECTOR_N = 20000

#: The half-neighborhood the grid builder scans (each unordered cell
#: pair visited once); the vectorized builder replays the same buckets
#: in the same order.
_GRID_DIRECTIONS = ((1, -1), (1, 0), (1, 1), (0, 1))


def _all_pairs_scan(pts: list[Point], graph: Graph[Point], r_sq: float) -> None:
    """Add every edge with squared distance at most ``r_sq``; O(n^2).

    The one scan both exact builders share below :data:`GRID_SMALL_N`,
    so their outputs there are bit-identical including adjacency
    insertion order.
    """
    add_edge = graph.add_edge
    for i in range(len(pts) - 1):
        pi = pts[i]
        pix, piy = pi.x, pi.y
        for j in range(i + 1, len(pts)):
            pj = pts[j]
            dx, dy = pix - pj.x, piy - pj.y
            if dx * dx + dy * dy <= r_sq:
                add_edge(pi, pj)


def unit_disk_graph_naive(
    points: Sequence[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """UDG by testing all pairs.  O(n^2); the reference implementation.

    Duplicate points are rejected, exactly as in :func:`unit_disk_graph`
    — the two builders promise identical behaviour on every input.
    """
    pts = _checked_points(points)
    graph: Graph[Point] = Graph(nodes=pts)
    r_sq = (radius + tol) * (radius + tol)
    with trace("udg.naive.build"):
        _all_pairs_scan(pts, graph, r_sq)
    if OBS.enabled:
        n = len(pts)
        OBS.incr("udg.naive.pairs_tested", n * (n - 1) // 2)
        OBS.incr("udg.naive.edges_emitted", graph.edge_count())
    return graph


def unit_disk_graph(
    points: Sequence[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """UDG via grid bucketing: only pairs in adjacent buckets are tested.

    Buckets have side ``radius``, so any edge's endpoints lie in the
    same or neighboring buckets.  Produces a graph identical to
    :func:`unit_disk_graph_naive` (tests assert this); expected time is
    linear in ``n`` for bounded density.  Below :data:`GRID_SMALL_N`
    nodes the builder dispatches to the all-pairs scan — same trace and
    counter names (with truthful all-pairs values), and output there is
    bit-identical to the naive builder's, adjacency order included.

    At and above :data:`GRID_VECTOR_N` nodes the builder dispatches to
    :func:`unit_disk_graph_vectorized` — bit-identical output again
    (node order, adjacency order, everything), with the pair testing
    done in numpy instead of per-pair interpreted loops.

    Duplicate points are rejected: two radios at the same coordinates
    would be a single node in the UDG model and silently merging them
    corrupts size accounting.  So are non-finite coordinates, which no
    radio can have and which no distance test would ever connect.
    """
    if len(points) >= GRID_VECTOR_N:
        return unit_disk_graph_vectorized(points, radius, tol)
    pts = _checked_points(points)
    graph: Graph[Point] = Graph(nodes=pts)
    if radius <= 0.0:
        return graph
    r_sq = (radius + tol) * (radius + tol)
    counting = OBS.enabled
    n = len(pts)
    if n < GRID_SMALL_N:
        with trace("udg.grid.build"):
            _all_pairs_scan(pts, graph, r_sq)
        if counting:
            OBS.incr("udg.grid.pairs_tested", n * (n - 1) // 2)
            OBS.incr("udg.grid.edges_emitted", graph.edge_count())
        return graph
    pairs_tested = 0
    with trace("udg.grid.build"):
        floor = math.floor
        buckets: dict[tuple[int, int], list[Point]] = {}
        setdefault = buckets.setdefault
        for p in pts:
            setdefault(
                (int(floor(p.x / radius)), int(floor(p.y / radius))), []
            ).append(p)
        add_edge = graph.add_edge
        bucket_get = buckets.get
        for (bx, by), cell in buckets.items():
            # Within-cell pairs.
            m = len(cell)
            if counting:
                pairs_tested += m * (m - 1) // 2
            for i in range(m - 1):
                pi = cell[i]
                pix, piy = pi.x, pi.y
                for j in range(i + 1, m):
                    pj = cell[j]
                    dx, dy = pix - pj.x, piy - pj.y
                    if dx * dx + dy * dy <= r_sq:
                        add_edge(pi, pj)
            # Cross-cell pairs: scan half the neighbors to visit each
            # unordered cell pair once.
            for ox, oy in _GRID_DIRECTIONS:
                other = bucket_get((bx + ox, by + oy))
                if not other:
                    continue
                if counting:
                    pairs_tested += m * len(other)
                for p in cell:
                    px, py = p.x, p.y
                    for q in other:
                        dx, dy = px - q.x, py - q.y
                        if dx * dx + dy * dy <= r_sq:
                            add_edge(p, q)
    if counting:
        OBS.incr("udg.grid.pairs_tested", pairs_tested)
        OBS.incr("udg.grid.edges_emitted", graph.edge_count())
    return graph


def _checked_points(points: Sequence[Point]) -> list[Point]:
    """Materialize and validate a deployment: duplicates and non-finite
    coordinates are errors.

    Shared by every builder so their input contract is identical (see
    ``docs/usage.md`` §1).
    """
    pts = list(points)
    isfinite = math.isfinite
    for p in pts:
        if not (isfinite(p.x) and isfinite(p.y)):
            raise ValueError(f"non-finite coordinates in UDG input: {p!r}")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in UDG input")
    return pts


def unit_disk_graph_vectorized(
    points: Sequence[Point],
    radius: float = 1.0,
    tol: float = EPS,
) -> Graph[Point]:
    """UDG built with vectorized pair testing; bit-identical to the grid.

    The builder the 10⁴–10⁶-node deployments need: the same grid
    bucketing as :func:`unit_disk_graph`, but with every per-pair step
    executed as numpy array operations instead of interpreted loops.
    The output is **bit-identical** to the grid builder's at every size
    — node order, adjacency insertion order, everything — because the
    builder reconstructs the grid's exact edge emission order: it
    enumerates candidate pairs in ``(emitting bucket's first-appearance
    rank, scan phase, position of each endpoint in its bucket)`` order —
    the scan phase being within-cell (0) or the index of the cross-cell
    direction in :data:`_GRID_DIRECTIONS` (1–4) — which is precisely the
    order the grid builder's nested loops emit.  The hypothesis suite in
    ``tests/graphs/test_udg_vectorized.py`` pins the equivalence.

    Nothing is replayed through :meth:`Graph.add_edge`: the edges
    become each node's insertion-ordered neighbor row in numpy (see
    :func:`_neighbor_rows`), the adjacency dicts are filled a row at a
    time, and the same rows seed the graph's memoized
    :class:`~repro.graphs.indexed.IndexedGraph` view, so the
    connectivity check, the solver's kernel build and validation never
    intern the topology again.

    Counters (``udg.vector.pairs_tested`` — the bucket pairs the grid
    scan *would* test, computed from bucket sizes — and
    ``udg.vector.edges_emitted``) describe the same candidate economy
    as the grid builder's.

    Raises:
        ValueError: on duplicate points or non-finite coordinates.
    """
    pts = _checked_points(points)
    n = len(pts)
    if radius <= 0.0 or n < GRID_SMALL_N:
        graph: Graph[Point] = Graph(nodes=pts)
        if radius <= 0.0:
            return graph
        with trace("udg.vector.build"):
            _all_pairs_scan(pts, graph, (radius + tol) * (radius + tol))
        if OBS.enabled:
            OBS.incr("udg.vector.pairs_tested", n * (n - 1) // 2)
            OBS.incr("udg.vector.edges_emitted", graph.edge_count())
        return graph
    with trace("udg.vector.build"):
        left, right, pairs_tested = _grid_edges(pts, radius, tol)
        indptr, nbr = _neighbor_rows(left, right, n)
        # The pair search's temporaries are gone; drop the edge list too
        # before the Python-object fill allocates its rows.
        del left, right
        graph = _bulk_graph(pts, indptr, nbr)
    if OBS.enabled:
        OBS.incr("udg.vector.pairs_tested", pairs_tested)
        OBS.incr("udg.vector.edges_emitted", graph.edge_count())
    return graph


def _grid_edges(
    pts: list[Point], radius: float, tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every UDG edge as ``(left, right)`` point ids, in the grid
    builder's emission order, plus the grid's ``pairs_tested`` count.

    ``left`` is the endpoint the grid builder's scan reaches first
    (its ``add_edge`` first argument).  All numpy temporaries of the
    pair search die with this frame.
    """
    n = len(pts)
    r_sq = (radius + tol) * (radius + tol)
    xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=n)
    # Bucket exactly as the grid builder does (same float divisions,
    # same floor), then rank occupied cells by first appearance — the
    # iteration order of the grid builder's bucket dict.
    cx = np.floor(xs / radius).astype(np.int64)
    cy = np.floor(ys / radius).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    width = int(cy.max()) + 3
    key = cx * width + (cy + 1)  # +1 keeps the oy=-1 neighbor in-row
    uniq, first_idx, inv = np.unique(key, return_index=True, return_inverse=True)
    appearance = np.argsort(first_idx, kind="stable")
    rank_of = np.empty(uniq.size, dtype=np.int64)
    rank_of[appearance] = np.arange(uniq.size, dtype=np.int64)
    cell_rank = rank_of[inv]
    # Bucket membership: perm groups point ids by cell rank (stable, so
    # within a bucket they keep input order, like the grid's per-cell
    # lists); bucket r is perm[starts[r]:starts[r] + sizes[r]].
    perm = np.argsort(cell_rank, kind="stable")
    sizes = np.bincount(cell_rank, minlength=uniq.size)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    # The bucket pairs the grid scan visits: every occupied cell with
    # itself (phase 0), plus each existing half-neighborhood cell
    # (phases 1-4), discovered by key lookup.
    ranks = np.arange(uniq.size, dtype=np.int64)
    keys_by_rank = uniq[appearance]
    pair_a = [ranks]
    pair_b = [ranks]
    pair_phase = [np.zeros(uniq.size, dtype=np.int64)]
    for phase, (ox, oy) in enumerate(_GRID_DIRECTIONS, start=1):
        nbr = keys_by_rank + ox * width + oy
        loc = np.minimum(np.searchsorted(uniq, nbr), uniq.size - 1)
        found = uniq[loc] == nbr
        pair_a.append(ranks[found])
        pair_b.append(rank_of[loc[found]])
        pair_phase.append(np.full(int(found.sum()), phase, dtype=np.int64))
    # In scan order — by emitting bucket rank, then phase — so that the
    # expansion below enumerates candidates in the grid builder's
    # emission order: bucket pair, then each endpoint's position in its
    # bucket (the nested loop indices).  Every (rank, phase) key is
    # unique, so any sort gives this order.
    cell_a = np.concatenate(pair_a)
    cell_b = np.concatenate(pair_b)
    phases = np.concatenate(pair_phase)
    scan = np.argsort(cell_a * 5 + phases)
    cell_a, cell_b, phases = cell_a[scan], cell_b[scan], phases[scan]
    cross = phases > 0
    pairs_tested = int((sizes * (sizes - 1) // 2).sum()) + int(
        (sizes[cell_a[cross]] * sizes[cell_b[cross]]).sum()
    )
    # Expand every scanned bucket pair's full point product in one
    # batch, then filter — within-cell products to the strict upper
    # triangle, everything by the exact distance predicate.  Filtering
    # keeps the scan order.
    ma = sizes[cell_a]
    mb = sizes[cell_b]
    counts = ma * mb
    total = int(counts.sum())
    pair_id = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    t = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    mbp = mb[pair_id]
    ip = t // mbp
    jp = t - ip * mbp
    keep = (phases[pair_id] > 0) | (ip < jp)
    pair_id, ip, jp = pair_id[keep], ip[keep], jp[keep]
    left = perm[starts[cell_a[pair_id]] + ip]
    right = perm[starts[cell_b[pair_id]] + jp]
    dx = xs[left] - xs[right]
    dy = ys[left] - ys[right]
    hit = dx * dx + dy * dy <= r_sq
    return left[hit], right[hit], pairs_tested


def _neighbor_rows(
    left: np.ndarray, right: np.ndarray, n: int
) -> tuple[list[int], np.ndarray]:
    """CSR rows of the graph ``add_edge(left[k], right[k])`` for ``k`` in
    order would build: ``(indptr, nbr)`` with node ``i``'s neighbor ids,
    in adjacency insertion order, at ``nbr[indptr[i]:indptr[i + 1]]``.

    Each edge appends to both endpoints' rows, so emitting ``(left,
    right)`` and ``(right, left)`` interleaved per edge and stably
    sorting by source keeps every row in emission order.
    """
    entries = 2 * left.size
    src = np.empty(entries, dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = left
    src[1::2] = right
    dst[0::2] = right
    dst[1::2] = left
    indptr = [0, *np.cumsum(np.bincount(src, minlength=n)).tolist()]
    # The stable sort by source, as a plain sort of unique keys (about
    # four times faster than a stable argsort here).
    key = src * entries + np.arange(entries, dtype=np.int64)
    key.sort()
    return indptr, dst[key % entries]


def _bulk_graph(pts: list[Point], indptr: list[int], nbr: np.ndarray) -> Graph[Point]:
    """The :class:`Graph` with CSR rows ``(indptr, nbr)`` over ``pts``,
    its memoized kernel view seeded from the same rows.

    Object-array gathers keep every entry a shared reference: each
    neighbor id is the one ``int`` object of ``list(range(n))`` that
    the view interns it to (``nbr.tolist()`` would allocate a fresh
    ``int`` per adjacency entry), and each neighbor point is the input
    ``Point`` itself.
    """
    n = len(pts)
    ids = list(range(n))
    indices = np.fromiter(ids, dtype=object, count=n)[nbr].tolist()
    neighbors = np.fromiter(pts, dtype=object, count=n)[nbr].tolist()
    fromkeys = dict.fromkeys
    adj = {
        p: fromkeys(neighbors[a:b]) for p, a, b in zip(pts, indptr, indptr[1:])
    }
    index = IndexedGraph(tuple(pts), dict(zip(pts, ids)), indptr, indices)
    return Graph._adopt(adj, index)  # noqa: SLF001 - same-package bulk path


def communication_radius_graph(
    points: Sequence[Point], radius: float
) -> Graph[Point]:
    """UDG with an explicit (non-unit) communication radius.

    Equivalent to rescaling coordinates; provided because the examples
    speak in meters rather than normalized units.
    """
    return unit_disk_graph(points, radius=radius)


def quasi_unit_disk_graph(
    points: Sequence[Point],
    inner_radius: float = 0.75,
    outer_radius: float = 1.0,
    seed: int = 0,
) -> Graph[Point]:
    """A quasi-UDG: edges certain up to ``inner_radius``, impossible
    beyond ``outer_radius``, and decided pseudo-randomly in between.

    The in-between coin is a deterministic hash of the endpoint
    coordinates and ``seed``, so the same inputs always give the same
    topology.  Used by the robustness experiments: the paper's
    guarantees assume an ideal UDG, and this lets us measure how the
    algorithms degrade when that assumption is violated.

    Shares the exact builders' input contract: duplicate points are
    rejected, and an instrumented run reports
    ``udg.quasi.pairs_tested`` / ``udg.quasi.edges_emitted``.
    """
    if not (0.0 < inner_radius <= outer_radius):
        raise ValueError("need 0 < inner_radius <= outer_radius")
    pts = _checked_points(points)
    graph: Graph[Point] = Graph(nodes=pts)
    inner_sq = inner_radius * inner_radius
    outer_sq = (outer_radius + EPS) * (outer_radius + EPS)
    with trace("udg.quasi.build"):
        for i in range(len(pts) - 1):
            pi = pts[i]
            for j in range(i + 1, len(pts)):
                pj = pts[j]
                dx, dy = pi.x - pj.x, pi.y - pj.y
                d_sq = dx * dx + dy * dy
                if d_sq > outer_sq:
                    continue
                if d_sq <= inner_sq:
                    graph.add_edge(pi, pj)
                    continue
                coin = hash((round(pi.x, 9), round(pi.y, 9), round(pj.x, 9), round(pj.y, 9), seed))
                if coin % 2 == 0:
                    graph.add_edge(pi, pj)
    if OBS.enabled:
        n = len(pts)
        OBS.incr("udg.quasi.pairs_tested", n * (n - 1) // 2)
        OBS.incr("udg.quasi.edges_emitted", graph.edge_count())
    return graph
