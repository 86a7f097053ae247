"""Combinatorial 2-complexes: sides, periods, links, pieces, small cancellation.

Directed edge references are nonzero ints: ``+(e+1)`` traverses edge ``e`` in
its positive orientation (src -> tgt), ``-(e+1)`` the reverse.  Cell
boundaries are cyclic sequences of directed edge references; attaching maps
are required to be immersed (no backtrack at any cyclic position).
"""

from __future__ import annotations

import math
from functools import cached_property

from .records import Record
from .words import Presentation, period_length_exponent

# `Fraction` in annotations is fractions.Fraction, as callers pass it for
# alpha; it is not imported, which keeps `fractions` out of start-up.

INF = float("inf")


class ComplexError(ValueError):
    pass


class Complex2(Record):
    """A 2-complex given by its vertex count, edges and cell boundaries.

    The invariants that the perimeter calculus and the certificates read
    (`periods`, `sides`, `pieces`, `link_girths`, `cycle_covers`) are
    derived when first asked for and kept on the complex.  None is
    recomputed, so a complex must not be mutated once any of them has been
    read.
    """

    _fields = ("num_vertices", "edges", "cells")

    def __init__(self, num_vertices: int, edges: list[tuple[int, int]],
                 cells: list[tuple[int, ...]]):
        self.num_vertices = num_vertices
        self.edges = edges  # (src, tgt) for the positive orientation
        self.cells = cells  # boundary words of directed edge refs

    @cached_property
    def periods(self) -> tuple[tuple[int, int], ...]:
        """Per cell: (period length, exponent) of the boundary as a cyclic
        edge word."""
        return tuple(map(period_length_exponent, self.cells))

    @cached_property
    def sides(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per edge: the sides (cell, position) traversing it in either
        orientation, in cell and position order."""
        out: list[list[tuple[int, int]]] = [[] for _ in self.edges]
        for c, bdry in enumerate(self.cells):
            for i, d in enumerate(bdry):
                out[abs(d) - 1].append((c, i))
        return tuple(map(tuple, out))

    @cached_property
    def pieces(self) -> PieceTable:
        """The piece table (`compute_pieces`)."""
        return compute_pieces(self)

    @cached_property
    def link_girths(self) -> tuple[float, ...]:
        """Per vertex: the essential girth of its link."""
        return tuple(link_graph(self, v).essential_girth
                     for v in range(self.num_vertices))

    @cached_property
    def cycle_covers(self) -> tuple[float, ...]:
        """Per cell: the least `min_piece_cover` of its whole boundary cycle
        over all starts; inf when some edge of it lies in no piece.  A cell
        with an empty boundary has no cycle to cover and is refused."""
        for c, bdry in enumerate(self.cells):
            if not bdry:
                raise ComplexError(f"cell {c} has empty boundary")
        return tuple(min(min_piece_cover(self, c, s, len(bdry)) for s in range(len(bdry)))
                     for c, bdry in enumerate(self.cells))

    def num_edges(self) -> int:
        return len(self.edges)

    def num_cells(self) -> int:
        return len(self.cells)

    def tail(self, d: int) -> int:
        e = abs(d) - 1
        return self.edges[e][0] if d > 0 else self.edges[e][1]

    def head(self, d: int) -> int:
        e = abs(d) - 1
        return self.edges[e][1] if d > 0 else self.edges[e][0]

    def boundary_length(self, c: int) -> int:
        return len(self.cells[c])

    def euler_characteristic(self) -> int:
        return self.num_vertices - len(self.edges) + len(self.cells)

    def validate(self) -> None:
        for src, tgt in self.edges:
            if not (0 <= src < self.num_vertices and 0 <= tgt < self.num_vertices):
                raise ComplexError("edge endpoint out of range")
        for c, bdry in enumerate(self.cells):
            if not bdry:
                raise ComplexError(f"cell {c} has empty boundary")
            n = len(bdry)
            for i, d in enumerate(bdry):
                if d == 0 or abs(d) > len(self.edges):
                    raise ComplexError(f"cell {c} has bad edge ref")
                nxt = bdry[(i + 1) % n]
                if self.head(d) != self.tail(nxt):
                    raise ComplexError(f"cell {c} boundary does not chain at {i}")
                if d == -nxt:
                    raise ComplexError(f"cell {c} attaching map backtracks at {i}")


def standard_complex(p: Presentation) -> Complex2:
    """One vertex, one edge per generator, one 2-cell per relator."""
    edges = [(0, 0) for _ in p.generators]
    cells = [tuple(r.letters) for r in p.relators]
    x = Complex2(1, edges, cells)
    x.validate()
    return x


# --- vertex links -----------------------------------------------------------


class LinkGraph(Record):
    _fields = ("nodes", "corners", "essential_girth")

    def __init__(self, nodes: list[int], corners: list[tuple[int, int, int, int]],
                 essential_girth: float):
        self.nodes = nodes  # directed edge refs with head at the vertex
        self.corners = corners  # (node_a, node_b, cell, position)
        # shortest non-backtracking closed walk of length >= 3
        self.essential_girth = essential_girth


def link_graph(x: Complex2, v: int) -> LinkGraph:
    """Link of a 0-cell: one node per edge-end at v, one link-edge per corner."""
    if not (0 <= v < x.num_vertices):
        raise ComplexError("unknown vertex")
    nodes = []
    for e in range(len(x.edges)):
        for d in (e + 1, -(e + 1)):
            if x.head(d) == v:
                nodes.append(d)
    corners = []
    for c, bdry in enumerate(x.cells):
        n = len(bdry)
        for i in range(n):
            d_in = bdry[i]
            d_out = bdry[(i + 1) % n]
            if x.head(d_in) == v:
                corners.append((d_in, -d_out, c, i))
    return LinkGraph(nodes, corners, _essential_girth(nodes, corners))


def _essential_girth(nodes, corners) -> float:
    # Shortest closed walk of length >= 3 without an immediate reuse of the
    # same corner instance.  Pairs of parallel corners (length-2 cycles) stand
    # for valence-2 diagram vertices, which every T(q) permits, so they are
    # ignored here; walks may repeat corners non-consecutively.
    incident: dict[int, list[tuple[int, int]]] = {u: [] for u in nodes}
    for k, (p, r, _c, _i) in enumerate(corners):
        incident[p].append((r, k))
        incident[r].append((p, k))
    best = INF
    for k0, (p0, r0, _c, _i) in enumerate(corners):
        if p0 == r0:
            return 1
        # walk starts along corner k0 from p0 to r0
        dist = {(r0, k0): 1}
        frontier = [(r0, k0)]
        while frontier:
            nxt = []
            for (w, last) in frontier:
                d = dist[(w, last)]
                if d + 1 >= best:
                    continue
                for (w2, k) in incident[w]:
                    if k == last:
                        continue
                    if w2 == p0 and k != k0 and d + 1 >= 3:
                        best = min(best, d + 1)
                        continue
                    if (w2, k) not in dist:
                        dist[(w2, k)] = d + 1
                        nxt.append((w2, k))
            frontier = nxt
    return best


# --- pieces -----------------------------------------------------------------
#
# An occurrence (cell, i, s) of a path of length L reads, for k < L, the
# directed edge  b[i+k]  when s=+1  and  -b[i-k]  when s=-1 (indices cyclic).
# A pair of occurrences is excluded when a homeomorphism between the boundary
# circles commutes with the maps to the complex and carries one occurrence to
# the other; for immersed polygon boundaries these are exactly the rotations
# matching the cyclic words (same cell: shift = 0 mod period) and the
# word-matching rotations/reflections between distinct cells.


class PieceTable(Record):
    _fields = ("max_from", "cell_max")

    def __init__(self, max_from: list[list[int]], cell_max: list[int]):
        self.max_from = max_from  # per cell, per start: longest piece read forward
        self.cell_max = cell_max

    def reaches(self, c: int, start: int):
        """Letters of the boundary of cell c, read from start, that 1, 2, 3,
        ... pieces cover, taking the longest piece at each step, each capped
        at the boundary length; the walk ends there or where no piece
        starts."""
        row = self.max_from[c]
        m, reach = len(row), 0
        while reach < m and (step := row[(start + reach) % m]):
            reach = min(reach + step, m)
            yield reach


def _raise_longest_extensions(u: tuple[int, ...], v: tuple[int, ...],
                              best: list[int]) -> None:
    """Raise best[i] to the longest common extension, capped at
    min(|u|, |v|), of u read cyclically from i and v read cyclically from
    any j, over the pairs (i, j) that are not excluded.

    The pairs (i + k, j + k) form gcd(|u|, |v|) cyclic diagonals, one for
    each offset d = (j - i) mod gcd.  Along a diagonal the extension is 0 at
    a mismatch and one more than at the next pair otherwise, so a walk back
    from a mismatch gives every value in O(|u| |v|) time for all diagonals.
    Both words are indexed cyclically, so the memory stays linear in
    |u| + |v|.  A diagonal without a mismatch matches the whole words: for
    |u| = |v| it is a rotation carrying one boundary onto the other, and
    every pair on it is excluded; otherwise every pair on it reaches the cap.
    """
    mu, mv = len(u), len(v)
    cap = min(mu, mv)
    g = math.gcd(mu, mv)
    n = mu * mv // g
    for d in range(g):
        p = next((p for p in range(n) if u[p % mu] != v[(p + d) % mv]), None)
        if p is None:
            if mu != mv:
                best[:] = [max(b, cap) for b in best]
            continue
        run = 0
        for q in range(p, p - n, -1):
            i = q % mu
            run = min(run + 1, cap) if u[i] == v[(q + d) % mv] else 0
            if run > best[i]:
                best[i] = run


def compute_pieces(x: Complex2) -> PieceTable:
    """Longest piece read forward from each boundary position.

    An occurrence read forward on cell a is matched against every occurrence
    on every cell b read forward or backward.  Reading b backward is reading
    its inverse word forward, and the reflections carrying b onto a become
    the rotations carrying that inverse word onto a, so one routine covers
    both orientations.  Quadratic in the boundary lengths of each pair of
    cells.
    """
    inverses = [tuple(-d for d in reversed(bdry)) for bdry in x.cells]
    max_from = []
    for ba in x.cells:
        best = [0] * len(ba)
        for bb, bb_inv in zip(x.cells, inverses):
            _raise_longest_extensions(ba, bb, best)
            _raise_longest_extensions(ba, bb_inv, best)
        max_from.append(best)
    cell_max = [max(row) if row else 0 for row in max_from]
    return PieceTable(max_from, cell_max)


def min_piece_cover(x: Complex2, c: int, start: int, length: int) -> float:
    """Minimal number of pieces concatenating to the boundary subpath.

    Greedy longest-prefix (`PieceTable.reaches`); optimal because piece sets
    are closed under subpaths.  Returns inf when some edge of the subpath
    lies in no piece.
    """
    if not (0 <= c < len(x.cells)):
        raise ComplexError("unknown cell")
    m = len(x.cells[c])
    if not (0 <= start < m) or not (0 <= length <= m):
        raise ComplexError("invalid subpath")
    if length == 0:
        return 0
    return next((k for k, reach in enumerate(x.pieces.reaches(c, start), 1) if reach >= length),
                INF)


class SmallCancellationReport(Record):
    _fields = ("p", "q", "alpha", "c_holds", "t_holds", "c_prime_holds", "witnesses")

    def __init__(self, p: int, q: int, alpha: Fraction | None, c_holds: bool, t_holds: bool,
                 c_prime_holds: bool | None, witnesses: list[str] | None = None):
        self.p = p
        self.q = q
        self.alpha = alpha
        self.c_holds = c_holds
        self.t_holds = t_holds
        self.c_prime_holds = c_prime_holds
        self.witnesses = [] if witnesses is None else witnesses


def check_small_cancellation(x: Complex2, p: int, q: int,
                             alpha: Fraction | None = None) -> SmallCancellationReport:
    """C(p), T(q) (via link girth) and optional C'(alpha) verdicts."""
    if p < 2 or q < 3:
        raise ComplexError("need p >= 2 and q >= 3")
    if alpha is not None and alpha <= 0:
        raise ComplexError(f"need alpha > 0, not {alpha}")
    witnesses: list[str] = []
    c_holds = True
    for c, cover in enumerate(x.cycle_covers):
        if cover < p:
            c_holds = False
            witnesses.append(f"C({p}) fails: cell {c} boundary covered by {int(cover)} pieces")
    t_holds = True
    for v, g in enumerate(x.link_girths):
        if g < q:
            t_holds = False
            witnesses.append(
                f"T({q}) fails: essential link cycle of length {int(g)} at vertex {v}"
            )
    c_prime: bool | None = None
    if alpha is not None:
        c_prime = True
        for c in range(len(x.cells)):
            longest = x.pieces.cell_max[c]
            if longest and not (longest < alpha * len(x.cells[c])):
                c_prime = False
                witnesses.append(
                    f"C'({alpha}) fails: cell {c} has a piece of length {longest}"
                    f" with boundary length {len(x.cells[c])}"
                )
    return SmallCancellationReport(p, q, alpha, c_holds, t_holds, c_prime, witnesses)


def largest_metric_denominator(x: Complex2) -> float:
    """Largest n such that C'(1/n) holds; inf when the complex has no pieces."""
    best = INF
    for c in range(len(x.cells)):
        longest = x.pieces.cell_max[c]
        if longest:
            # need longest < m/n, i.e. n <= ceil(m/longest) - 1
            m = len(x.cells[c])
            n_max = (m + longest - 1) // longest - 1
            best = min(best, n_max)
    return best
