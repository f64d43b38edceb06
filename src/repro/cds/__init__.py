"""The paper's contribution: two-phased CDS construction and bounds.

* :func:`waf_cds` — the WAF algorithm of [10], ratio ``7 1/3`` (Thm 8).
* :func:`greedy_connector_cds` — the paper's new Section IV algorithm,
  ratio ``6 7/18`` (Thm 10).
* :mod:`repro.cds.bounds` — every bound the paper states, executable.
* :func:`minimum_cds` — exact ``gamma_c`` for measuring real ratios.
"""

from .base import CDSResult
from .gain import GainTracker, component_count, gain_of
from .lazy_gain import LazyGainTracker
from .bitset_gain import BitsetGainTracker
from .waf import waf_cds, waf_connectors
from .greedy_connector import greedy_connector_cds, greedy_connectors
from .steiner import steiner_cds, steiner_connectors
from .exact import (
    connected_domination_number,
    gamma_c_lower_bound,
    gamma_mfold_lower_bound,
    minimum_cds,
    minimum_mfold_cds,
)
from .mfold import (
    augment_biconnected,
    mfold_2conn_cds,
    mfold_dominators,
    mfold_greedy_cds,
)
from .prune import prune_cds, prune_result
from .maintenance import DynamicCDS, RepairStats
from . import bounds
from .bounds import (
    ALPHA_SLOPE,
    GREEDY_RATIO,
    WAF_RATIO,
    alpha_bound_this_paper,
    greedy_bound_this_paper,
    lemma9_min_gain,
    waf_bound_this_paper,
)

__all__ = [
    "CDSResult",
    "GainTracker",
    "LazyGainTracker",
    "BitsetGainTracker",
    "component_count",
    "gain_of",
    "waf_cds",
    "waf_connectors",
    "greedy_connector_cds",
    "greedy_connectors",
    "steiner_cds",
    "steiner_connectors",
    "connected_domination_number",
    "gamma_c_lower_bound",
    "gamma_mfold_lower_bound",
    "minimum_cds",
    "minimum_mfold_cds",
    "augment_biconnected",
    "mfold_2conn_cds",
    "mfold_dominators",
    "mfold_greedy_cds",
    "prune_cds",
    "prune_result",
    "DynamicCDS",
    "RepairStats",
    "bounds",
    "ALPHA_SLOPE",
    "GREEDY_RATIO",
    "WAF_RATIO",
    "alpha_bound_this_paper",
    "greedy_bound_this_paper",
    "lemma9_min_gain",
    "waf_bound_this_paper",
]
