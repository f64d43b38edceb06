"""Unit-disk graphs.

The communication topology of a wireless ad hoc network with all
transmission radii normalized to one: nodes are planar points, and two
nodes are adjacent iff their Euclidean distance is at most one
(Section I of the paper).

:func:`unit_disk_graph` is the one exact builder.  It tests pairs on
coordinate arrays: all pairs at once below :data:`GRID_SMALL_N` nodes,
and from there up only pairs in neighboring grid buckets — expected
linear time for bounded-density deployments, which is what makes the
larger benchmark sweeps feasible.  :func:`unit_disk_graph_naive`, the
obvious quadratic loop, is kept as the edge-set oracle the tests check
it against.  A quasi-UDG variant (edges certain below an inner radius,
absent above 1, arbitrary — here: pseudorandom — in between) is
included for robustness experiments, since real radios are not perfect
disks.

Every builder rejects duplicate points (two radios at identical
coordinates collapse into one UDG node, corrupting size accounting) and
non-finite coordinates, through the one validator
:func:`_check_coords`, and, when :data:`repro.obs.OBS` is enabled,
reports ``udg.<builder>.pairs_tested`` vs ``udg.<builder>.edges_emitted``
— the quantities that make the naive-vs-grid trade-off measurable
instead of folklore.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..geometry.point import EPS, Point
from ..obs import OBS, trace
from .graph import Graph
from .indexed import IndexedGraph

__all__ = [
    "unit_disk_graph",
    "unit_disk_graph_naive",
    "quasi_unit_disk_graph",
]

#: Below this node count :func:`unit_disk_graph` tests all pairs at
#: once and emits each adjacency row in ascending id order (the
#: all-pairs order, as :func:`unit_disk_graph_naive`); from here up it
#: buckets and emits rows in the grid scan's order.  The cutoff fixes
#: that row order, which downstream traversals depend on — not the
#: speed.
GRID_SMALL_N = 32

#: The half-neighborhood the grid scan visits from each bucket (each
#: unordered bucket pair once), in scan order.
_GRID_DIRECTIONS = ((1, -1), (1, 0), (1, 1), (0, 1))


def _all_pairs_scan(pts: list[Point], graph: Graph[Point], r_sq: float) -> None:
    """Add every edge with squared distance at most ``r_sq``; O(n^2)."""
    add_edge = graph.add_edge
    for i in range(len(pts) - 1):
        pi = pts[i]
        pix, piy = pi.x, pi.y
        for j in range(i + 1, len(pts)):
            pj = pts[j]
            dx, dy = pix - pj.x, piy - pj.y
            if dx * dx + dy * dy <= r_sq:
                add_edge(pi, pj)


def _checked(points: Iterable[Point]) -> list[Point]:
    """The deployment as a list, validated by :func:`_check_coords`."""
    pts = list(points)
    _check_coords(*_coords(pts), pts)
    return pts


def unit_disk_graph_naive(
    points: Iterable[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """UDG by testing all pairs.  O(n^2); the reference implementation.

    Duplicate points are rejected, exactly as in :func:`unit_disk_graph`
    — the two builders promise identical behaviour on every input.
    """
    pts = _checked(points)
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
    points: Iterable[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """The UDG over ``points``: an edge for every pair at distance at
    most ``radius`` (plus ``tol``); the edge set of
    :func:`unit_disk_graph_naive`.

    Pairs are tested on coordinate arrays (:func:`_udg_rows`): all at
    once below :data:`GRID_SMALL_N` nodes, where the output is
    bit-identical to the naive builder's, adjacency order included;
    from there up only pairs in neighboring buckets of side ``radius``
    — expected time linear in ``n`` for bounded density — with each
    adjacency row in grid scan order (:func:`_grid_edges`).  The
    graph's memoized :class:`~repro.graphs.indexed.IndexedGraph` view
    is seeded from the same rows (:func:`_bulk_graph`).  An
    instrumented run records one ``udg.grid.build`` span and the
    ``udg.grid.*`` counters at every ``n``.

    Duplicate points are rejected: two radios at the same coordinates
    would be a single node in the UDG model and silently merging them
    corrupts size accounting.  So are non-finite coordinates, which no
    radio can have and which no distance test would ever connect.
    """
    pts = list(points)
    xs, ys = _coords(pts)
    _check_coords(xs, ys, pts)
    if radius <= 0.0:
        return Graph(nodes=pts)
    return _udg_graph(pts, xs, ys, radius, tol)


def _udg_graph(
    pts: list[Point],
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float = 1.0,
    tol: float = EPS,
    rows: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> Graph[Point]:
    """:func:`unit_disk_graph`'s graph over the validated ``pts`` (at
    coordinates ``xs, ys``), with its span and counters.

    ``rows`` are the :func:`_udg_rows` of the same coordinates when the
    caller already has them; otherwise they are computed inside the
    span.
    """
    with trace("udg.grid.build"):
        if rows is None:
            rows = _udg_rows(xs, ys, radius, tol)
        indptr, nbr, pairs_tested = rows
        graph = _bulk_graph(pts, indptr, nbr)
    if OBS.enabled:
        OBS.incr("udg.grid.pairs_tested", pairs_tested)
        OBS.incr("udg.grid.edges_emitted", graph.edge_count())
    return graph


def _udg_rows(
    xs: np.ndarray, ys: np.ndarray, radius: float, tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """CSR rows of :func:`unit_disk_graph`'s graph over ``(xs[i],
    ys[i])`` (see :func:`_neighbor_rows`), plus its ``pairs_tested``:
    dense all-pairs rows below :data:`GRID_SMALL_N`, grid scan rows
    from there up."""
    n = xs.size
    if n < GRID_SMALL_N:
        adj = _pair_adjacency(xs, ys, radius, tol)
        return (*_dense_rows(adj, adj.sum(axis=1)), n * (n - 1) // 2)
    # The edge list dies with this frame, before the caller's
    # Python-object fill allocates its rows.
    left, right, pairs_tested = _grid_edges(xs, ys, radius, tol)
    return (*_neighbor_rows(left, right, n), pairs_tested)


def _dense_rows(
    adj: np.ndarray, degree: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the boolean adjacency matrix ``adj`` whose row sums
    are ``degree``: each row in ascending id order, which is the order
    the all-pairs scan emits."""
    n = degree.size
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    return indptr, np.flatnonzero(adj) % max(n, 1)


def _check_coords(
    xs: np.ndarray, ys: np.ndarray, pts: Sequence[Point] | None = None
) -> None:
    """Validate a deployment given as coordinate arrays: non-finite
    coordinates and duplicate points raise ``ValueError``.

    The one input check of every builder and of the deployment sampler
    (see ``docs/usage.md`` §1).  The first non-finite point in input
    order is named — ``pts[i]`` itself when the caller has the points,
    else rebuilt from its coordinates — so no ``Point`` is made unless
    one is reported.
    """
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        first = int((np.isfinite(xs) & np.isfinite(ys)).argmin())
        p = pts[first] if pts is not None else Point(float(xs[first]), float(ys[first]))
        raise ValueError(f"non-finite coordinates in UDG input: {p!r}")
    # Equal points (== per coordinate, so 0.0 and -0.0 agree, as in a
    # set of Points) share an x and sort next to each other; random
    # deployments almost never share an x, so sort by x alone first.
    sorted_xs = np.sort(xs)
    if (sorted_xs[1:] == sorted_xs[:-1]).any():
        order = np.lexsort((ys, xs))
        ox, oy = xs[order], ys[order]
        if ((ox[1:] == ox[:-1]) & (oy[1:] == oy[:-1])).any():
            raise ValueError("duplicate points in UDG input")


def _pair_adjacency(
    xs: np.ndarray, ys: np.ndarray, radius: float, tol: float
) -> np.ndarray:
    """The UDG over the points ``(xs[i], ys[i])`` as an ``n x n``
    boolean adjacency matrix (no self-loops), from one dense distance
    test.

    The same float operations as :func:`_all_pairs_scan`, so the same
    edges; O(n²) memory, so only for small ``n``.
    """
    d_sq = xs[:, None] - xs
    d_sq *= d_sq
    dy = ys[:, None] - ys
    dy *= dy
    d_sq += dy
    adj = d_sq <= (radius + tol) * (radius + tol)
    np.fill_diagonal(adj, False)
    return adj


def _coords(pts: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    """The ``x`` and ``y`` coordinates of ``pts`` as float arrays."""
    n = len(pts)
    xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=n)
    return xs, ys


def _grid_edges(
    xs: np.ndarray, ys: np.ndarray, radius: float, tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every UDG edge over the points ``(xs[i], ys[i])`` as ``(left,
    right)`` point ids, in grid scan order, plus the scan's
    ``pairs_tested`` count.

    The grid scan puts each point, in input order, into the bucket
    ``(floor(x / radius), floor(y / radius))``, so any edge's endpoints
    lie in the same or neighboring buckets.  It visits the buckets in
    order of first appearance; from each it tests the bucket's own
    pairs (scan phase 0; ``i < j`` by position in the bucket), then its
    product with each existing neighbor bucket in the directions of
    :data:`_GRID_DIRECTIONS` (phases 1-4; bucket point outer, neighbor
    point inner).  Here the candidate pairs are enumerated in exactly
    that order — sorted by ``(emitting bucket's rank, phase, position
    of each endpoint in its bucket)`` — and tested in numpy in one
    batch.  ``left`` is the endpoint the scan reaches first; the count
    is the pairs the scan tests, computed from bucket sizes.  All numpy
    temporaries of the pair search die with this frame.
    """
    r_sq = (radius + tol) * (radius + tol)
    # Bucket (one float division and floor per coordinate), then rank
    # occupied cells by first appearance — the scan's bucket order.
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
    # expansion below enumerates candidates in the grid scan's
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
) -> tuple[np.ndarray, np.ndarray]:
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
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # The stable sort by source, as a plain sort of unique keys (about
    # four times faster than a stable argsort here).
    key = src * entries + np.arange(entries, dtype=np.int64)
    key.sort()
    return indptr, dst[key % entries]


def _bulk_graph(pts: list[Point], indptr: np.ndarray, nbr: np.ndarray) -> Graph[Point]:
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
    indptr = indptr.tolist()
    indices = np.fromiter(ids, dtype=object, count=n)[nbr].tolist()
    neighbors = np.fromiter(pts, dtype=object, count=n)[nbr].tolist()
    fromkeys = dict.fromkeys
    adj = {
        p: fromkeys(neighbors[a:b]) for p, a, b in zip(pts, indptr, indptr[1:])
    }
    index = IndexedGraph(tuple(pts), dict(zip(pts, ids)), indptr, indices)
    return Graph._adopt(adj, index)  # noqa: SLF001 - same-package bulk path


def quasi_unit_disk_graph(
    points: Iterable[Point],
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
    pts = _checked(points)
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
