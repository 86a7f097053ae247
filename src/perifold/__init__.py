"""Weighted perimeter calculus on combinatorial 2-complexes.

Folding and packet attachment drive a terminating reduction loop that
computes finite presentations of finitely generated subgroups; side
weightings certify coherence and local quasiconvexity for one-relator and
small-cancellation presentations and enable membership and intersection
procedures.
"""

from .complexes import (
    Complex2,
    check_small_cancellation,
    compute_pieces,
    link_graph,
    min_piece_cover,
    standard_complex,
)
from .criteria import (
    check_equalweights,
    check_few_occurrences,
    check_min_generator,
    check_one_relator_torsion,
    check_sc_weight,
    find_certificate,
    magnus_weighting,
    power_theorem,
)
from .engine import extract_presentation
from .maps import CombMap, based_fiber_product, is_packed
from .subgroups import intersect, magnus_intersect, member, subgroup_presentation
from .weights import Weighting, cell_weight, map_perimeter, path_perimeter, unit_weighting
from .words import (
    Presentation,
    Word,
    cyclic_reduce,
    cyclically_conjugate,
    free_reduce,
    generator_occurrences,
    parse_presentation,
    parse_word,
    period_exponent,
)

__version__ = "0.1.0"
