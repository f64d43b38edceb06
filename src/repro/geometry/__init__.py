"""Computational-geometry substrate for the CDS reproduction.

Everything the paper's packing arguments need: points, predicates,
unit disks and circle intersections, arcs and arc-polygons, independent
packings and the ``phi_n`` bound, stars and the Lemma 4 star
decomposition, the Figure 1/2 tightness constructions, and the
Voronoi / hexagonal-lattice machinery for the Section V discussion.
"""

from .point import (
    EPS,
    Point,
    distance,
    max_pairwise_distance,
    min_pairwise_distance,
    pairwise_distances,
)
from .predicates import (
    angle_at,
    convex_hull,
    diameter,
    is_convex_polygon,
    orientation,
    point_in_polygon,
)
from .disks import (
    circle_circle_intersection,
    disk_union_area,
    in_disk,
    in_neighborhood,
    points_in_neighborhood,
)
from .arcs import Arc, ArcPolygon, arc_between, chord_length
from .packing import (
    WEGNER_RADIUS2_CAPACITY,
    disk_candidates,
    greedy_independent_subset,
    grid_candidates,
    is_independent,
    max_independent_subset,
    max_independent_subset_size,
    neighborhood_candidates,
    phi,
)
from .stars import (
    is_nontrivial_star_decomposition,
    is_star,
    is_star_decomposition,
    star_centers,
    star_decomposition,
)
from .constructions import (
    DEFAULT_DELTA,
    DEFAULT_EPS,
    figure1_three_star,
    figure1_two_star,
    figure2_linear,
    one_star_packing,
)
from .voronoi import (
    HEXAGON_SIDE,
    area_argument_bound,
    hexagon_area,
    voronoi_cell_areas,
)
from .lemma_checks import (
    lemma11_angle_sum,
    lemma11_holds,
    lemma12_configuration,
    lemma13_angle_sum,
    lemma13_point_p,
)
from .hexagonal import (
    FEJES_TOTH_DENSITY,
    hexagonal_lattice,
    hexagonal_points_in_disk,
    hexagonal_points_in_neighborhood,
)

__all__ = [
    # point
    "EPS",
    "Point",
    "distance",
    "max_pairwise_distance",
    "min_pairwise_distance",
    "pairwise_distances",
    # predicates
    "angle_at",
    "convex_hull",
    "diameter",
    "is_convex_polygon",
    "orientation",
    "point_in_polygon",
    # disks
    "circle_circle_intersection",
    "disk_union_area",
    "in_disk",
    "in_neighborhood",
    "points_in_neighborhood",
    # arcs
    "Arc",
    "ArcPolygon",
    "arc_between",
    "chord_length",
    # packing
    "WEGNER_RADIUS2_CAPACITY",
    "disk_candidates",
    "greedy_independent_subset",
    "grid_candidates",
    "is_independent",
    "max_independent_subset",
    "max_independent_subset_size",
    "neighborhood_candidates",
    "phi",
    # stars
    "is_nontrivial_star_decomposition",
    "is_star",
    "is_star_decomposition",
    "star_centers",
    "star_decomposition",
    # constructions
    "DEFAULT_DELTA",
    "DEFAULT_EPS",
    "figure1_three_star",
    "figure1_two_star",
    "figure2_linear",
    "one_star_packing",
    # voronoi
    "HEXAGON_SIDE",
    "area_argument_bound",
    "hexagon_area",
    "voronoi_cell_areas",
    # lemma checks (appendix)
    "lemma11_angle_sum",
    "lemma11_holds",
    "lemma12_configuration",
    "lemma13_angle_sum",
    "lemma13_point_p",
    # hexagonal
    "FEJES_TOTH_DENSITY",
    "hexagonal_lattice",
    "hexagonal_points_in_disk",
    "hexagonal_points_in_neighborhood",
]
