"""Weight functions on sides and the perimeter of a map.

A side (R, r) of the codomain is *present* at a domain edge y exactly when
some domain 2-cell lying over R has y at the boundary position that maps onto
r; the characteristic map of R is injective on the interior of its polygon,
so each domain cell admits exactly one such factorization.  The perimeter of
a map is the total weight of the sides missing at its domain edges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .complexes import Complex2
from .maps import CombMap
from .records import Record
from .words import Word


class WeightError(ValueError):
    pass


class Weighting(Record, frozen=True):
    """Nonnegative integer weights on the sides of a 2-complex, which the
    weighting names (`complex`): a weighted complex (X, w) is handed around
    as w alone, and the criteria read X off it.

    The edge perimeters and, per cell, the weight Wt(R), the packet weight
    n*Wt(R) and the prefix sums of edge perimeters around the boundary read
    twice are derived when the weighting is built.  The subpath bound
    P(S) <= n*Wt(R) is evaluated by one bisection of those sums,
    `shortest_subpath_reaching`, for the engine's candidates and for the
    certificates' worst subpaths alike.
    The scan plan of `engine.find_site` per engine mode (per (cell, start)
    with a candidate: its walk key, ∂R read from start and the shortest
    candidate length) and the certificate of each grade, one entry per
    grade (`criteria.find_certificate`), are derived when first asked
    for.  None is recomputed, so the complex must not be mutated
    afterwards; it keeps its own invariants (`Complex2`).
    """

    _fields = ("complex", "side_weights")

    def __init__(self, complex: Complex2, side_weights: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "complex", complex)
        # per cell, per boundary position
        object.__setattr__(self, "side_weights", side_weights)
        x = complex
        if len(side_weights) != x.num_cells():
            raise WeightError("one weight row per 2-cell required")
        per = [0] * x.num_edges()
        for c, row in enumerate(side_weights):
            if len(row) != x.boundary_length(c):
                raise WeightError(f"cell {c} needs one weight per boundary position")
            if any((not isinstance(wt, int)) or wt < 0 for wt in row):
                raise WeightError("weights must be nonnegative integers")
            if sum(row) <= 0:
                raise WeightError(f"cell {c} has weight 0")
            for d, wt in zip(x.cells[c], row):
                per[abs(d) - 1] += wt
        prefix = []
        for bdry in x.cells:
            sums = [0]
            for d in bdry + bdry:
                sums.append(sums[-1] + per[abs(d) - 1])
            prefix.append(sums)
        cell_weights = tuple(map(sum, side_weights))
        object.__setattr__(self, "_per", per)
        object.__setattr__(self, "_cell_weights", cell_weights)
        object.__setattr__(self, "_packet_weights",
                           tuple(n * wt for (_p, n), wt in zip(x.periods, cell_weights)))
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_scans", {})
        object.__setattr__(self, "_certificates", {})

    def weight(self, cell: int, pos: int) -> int:
        return self.side_weights[cell][pos]


def unit_weighting(x: Complex2) -> Weighting:
    return Weighting(x, tuple(tuple(1 for _ in bdry) for bdry in x.cells))


def weighting_from_rows(x: Complex2, rows) -> Weighting:
    return Weighting(x, tuple(tuple(row) for row in rows))


def edge_perimeters(w: Weighting) -> list[int]:
    return list(w._per)


def subpath_perimeter(w: Weighting, c: int, start: int, length: int) -> int:
    """Sum of edge perimeters along the boundary subpath of cell c that
    starts at position start (taken cyclically) and has 0 <= length <= |R|
    edges."""
    s = start % w.complex.boundary_length(c)
    prefix = w._prefix[c]
    return prefix[s + length] - prefix[s]


def shortest_subpath_reaching(w: Weighting, c: int, start: int, total: int,
                              strict: bool = False) -> int:
    """Least length 0 <= l <= |R| whose boundary subpath of cell c from
    start (taken cyclically) has perimeter at least total, or above it when
    strict; |R| + 1 when none has.  Edge perimeters are nonnegative, so a
    subpath's perimeter never drops as it grows: the lengths that reach the
    total form the interval [l, |R|], and a bisection of the prefix sums
    finds l."""
    m = w.complex.boundary_length(c)
    s, prefix = start % m, w._prefix[c]
    reach = bisect_right if strict else bisect_left
    return reach(prefix, prefix[s] + total, s, s + m + 1) - s


def cell_weight(w: Weighting, c: int) -> int:
    """Wt(R): the total weight of the sides of cell c."""
    return w._cell_weights[c]


def packet_weight(w: Weighting, c: int) -> int:
    """n*Wt(R) for cell c with boundary exponent n: the weight of the sides
    of its packet, the bound of every subpath test."""
    return w._packet_weights[c]


def path_perimeter(w: Weighting, word: Word) -> int:
    """Sum of edge perimeters along a word over a one-vertex complex (edges
    counted with multiplicity)."""
    return sum(w._per[abs(d) - 1] for d in word.letters)


# --- map perimeter ----------------------------------------------------------


def present_sides(m: CombMap) -> list[set[tuple[int, int]]]:
    """Per domain edge: the set of codomain sides present at it."""
    present: list[set[tuple[int, int]]] = [set() for _ in range(m.domain.num_edges())]
    for c in range(m.domain.num_cells()):
        r = m.cell_image[c][0]
        for q, d in enumerate(m.rewritten_cycle(c)):
            present[abs(d) - 1].add((r, q))
    return present


def map_perimeter(w: Weighting, m: CombMap) -> int:
    """Double sum of the weights of missing sides over all domain edges."""
    if m.codomain != w.complex:
        raise WeightError("weighting belongs to a different complex")
    present = present_sides(m)
    sides = w.complex.sides
    total = 0
    for e in range(m.domain.num_edges()):
        for side in sides[abs(m.edge_image[e]) - 1]:
            if side not in present[e]:
                total += w.weight(*side)
    return total

