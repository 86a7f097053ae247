"""Superseded implementations, kept as the references that the fast paths
in `perifold` are tested against, and the map-level entries and fixture
maps that only the tests use, with `word`, which builds a `Word` from a
list of letters, and `replace`, which copies a record with some fields
changed.

`restrict_to_component(fiber_product(a, b).to_codomain, based_vertex)` is
the based component computed the long way: every vertex pair and every edge
pair first, then everything the basepoint pair does not reach thrown away;
`perifold.maps.based_fiber_product`, read off two live domains, must agree
with it on the maps that those domains build (`Domain.to_map`).

`reference_compute_pieces` is the cubic-time piece table that compares
every pair of occurrences in both orientations letter by letter and tests
each pair for exclusion on its own; it also lists every matching pair of
occurrences (`pairs`).  `reference_check_sc_weight` is the small-cancellation
weight test that scans every (start, length) subpath of every cell and
computes its piece cover afresh from that table, by its own copy of the
greedy cover; it asserts that the complex's cached `pieces` equal the table
before it reads the C(p)/T(q) report.  `reference_check_one_relator_torsion`
tests every (start, length) subpath shorter than the period in turn.
`reference_candidate` tests one (cell, start, length) for the engine,
summing the complement's edge perimeters one by one, and
`reference_candidates` lists every candidate so, as a `CandidateQ`.  The
program evaluates all of these bounds by one bisection of the prefix sums
(`perifold.weights.shortest_subpath_reaching`).

`reduce_map` and `fold_to_immersion` are the map-level entries to the
program's live domain, and with `vertex_map`, `reference_augment_domain`,
`present_corners` and `repeated_cells` (below) the only code here that
reads a `Domain`: each entry wraps a map as `Domain(m, w)`, runs
`reduce_domain` or the folds and `remove_redundant` on it, and builds the
map once, at the end; `fold_to_immersion`, whose folds read no weight,
wraps it with unit weights (`unit_weighting` of the codomain);
`vertex_map` tells where the domain's vertex ids lie in that map.
They are the program's side of the comparisons below.  `canonical_form`
describes a connected 1-immersed based map up to isomorphism
(`isomorphic_maps`), so fold results compare whatever the fold order.
`build_packet` is the projection of a cell's packet, and `identity_map`
the identity of a complex.

`reference_bouquet_map` builds a bouquet as a map, arc by arc into the
edge and vertex lists, and validates it; `perifold.maps.Domain.bouquet`,
which glues the arcs onto a live one-vertex domain, must build the same
map and the same live state as a `Domain` of this map.

`apply_fold` makes one fold at a time: `fold_to_immersion` must end where
repeated `find_fold` / `apply_fold` ends.
`reference_attach_packet` and `reference_augment_with_cells` build the
attached and the augmented domain by hand; `perifold.engine.attach_site`
and `perifold.maps.Domain.augment`, which change the live domain in place,
must agree with them on the map built from it (`AttachResult` is what
`reference_attach_packet` returns).  `reference_augment_domain` is the
gluing that `Domain.augment` replaced, one `add_arc` and one `_add_cell`
per copy on a live domain; `augment`, which writes each copy whole, must
leave every field of the domain as it does.  `perifold.subgroups` keeps
one live domain per subgroup; `intersect` must agree with the composition
that builds a map after every reduction and augments it with
`reference_augment_with_cells`, and `member_with_trace` with the answer
read off `reduce_map`'s `vertex_tracking`.

`EagerDomain` is a `Domain` with the storage that `Domain.identify` and
`Domain.fold_all` replaced: two end lists merged by appending one to the
other and sorting the whole, and a root deleted from the middle of
`leaving` as soon as it is merged away or loses its last end over a
letter.  Reduced by the same `reduce_domain`, a bouquet must give the same
trace and the same map on it as on a `Domain`, folding in the same order.

`reference_extract_presentation` sorts each vertex's ends by (|d|, -d)
and reads each head by `Complex2.head`; the program's
`extract_presentation`, which lists the ends in that order as it builds
them, must give the same presentation.

`present_cycles` (the rewritten cycles over each target cell) and
`out_edges` (each vertex's ends by image) index a map afresh; the
references read them where the program reads its live `Domain`.
`present_corners` and `repeated_cells` read the live cells' cycles of a
`Domain` afresh: the corners of its present cycles, which the blocked
test (`perifold.engine._blocked`, which `attach_site` calls and
`find_site` inlines) must match at every root of every scan group, and
the cells that repeat a smaller one, which must be the domain's `twins`.
`reference_remove_redundant` and `reference_repair_packing` change a map
by copying it; `Domain.remove_redundant` and `Domain.repair`, and the fold
phases of `reduce_map`, must agree with them on the map built from the
domain.

`reference_find_attachment` takes the candidates in the order (sign *
length, cell, start), sign -1 in strict mode and +1 in weak mode, lifts
each forward to its length from every vertex, then grows the lift forward
and backward to a maximal site; `perifold.engine.find_site` on the live
domain, which counts each (cell, start, root) once per call and takes the
least key over the lifts that qualify, must return the same site on the
map built from it.  None of these references reads a `Domain`, so a
reduction loop built of them and `apply_fold` checks the program's whole
loop.
"""

from __future__ import annotations

import bisect
import heapq
import inspect
from dataclasses import dataclass

from perifold.complexes import INF, Complex2, check_small_cancellation
from perifold.criteria import _VARIANTS, CriterionError, Verdict
from perifold.engine import (
    AttachmentSite,
    EngineError,
    ReductionTrace,
    StaleSiteError,
    reduce_domain,
)
from perifold.maps import (
    CombMap,
    Domain,
    MapError,
    end_stars,
    find_fold,
    packet_mates,
)
from perifold.weights import (Weighting, cell_weight, edge_perimeters, packet_weight,
                              subpath_perimeter, unit_weighting)
from perifold.words import Presentation, Word, cyclic_reduce


@dataclass
class FiberProduct:
    product: Complex2
    to_a: CombMap
    to_b: CombMap
    to_codomain: CombMap
    based_vertex: int


def fiber_product(a: CombMap, b: CombMap) -> FiberProduct:
    """Pairs of cells with equal image.

    Vertices are image-matching vertex pairs; edges are image-matching edge
    pairs oriented compatibly; each pair of 2-cells over a common target cell
    contributes the single product cell whose boundary pairs their rewritten
    cycles position by position.
    """
    if a.codomain != b.codomain:
        raise MapError("fiber product needs a common codomain")
    x = a.codomain
    vid: dict[tuple[int, int], int] = {}
    for u in range(a.domain.num_vertices):
        for v in range(b.domain.num_vertices):
            if a.vertex_image[u] == b.vertex_image[v]:
                vid[(u, v)] = len(vid)
    edges: list[tuple[int, int]] = []
    edge_a: list[int] = []
    edge_b: list[int] = []
    edge_img: list[int] = []
    eid: dict[tuple[int, int], int] = {}  # (signed a-edge, signed b-edge) -> ref
    for ea in range(a.domain.num_edges()):
        for eb in range(b.domain.num_edges()):
            da, db = a.edge_image[ea], b.edge_image[eb]
            if abs(da) != abs(db):
                continue
            # orient both over the positive codomain edge
            da_dir = (ea + 1) if da > 0 else -(ea + 1)
            db_dir = (eb + 1) if db > 0 else -(eb + 1)
            src = (a.domain.tail(da_dir), b.domain.tail(db_dir))
            tgt = (a.domain.head(da_dir), b.domain.head(db_dir))
            ref = len(edges) + 1
            edges.append((vid[src], vid[tgt]))
            edge_a.append(da_dir)
            edge_b.append(db_dir)
            edge_img.append(abs(da))
            eid[(da_dir, db_dir)] = ref
            eid[(-da_dir, -db_dir)] = -ref
    cells: list[tuple[int, ...]] = []
    cell_a: list[tuple[int, int, bool]] = []
    cell_b: list[tuple[int, int, bool]] = []
    cell_img: list[tuple[int, int, bool]] = []
    for ca in range(a.domain.num_cells()):
        ra = a.cell_image[ca][0]
        cyc_a = a.rewritten_cycle(ca)
        for cb in range(b.domain.num_cells()):
            if b.cell_image[cb][0] != ra:
                continue
            cyc_b = b.rewritten_cycle(cb)
            bdry = tuple(eid[(cyc_a[q], cyc_b[q])] for q in range(len(cyc_a)))
            cells.append(bdry)
            cell_a.append((ca, 0, False))
            cell_b.append((cb, 0, False))
            cell_img.append((ra, 0, False))
    prod = Complex2(len(vid), edges, cells)
    vpairs = sorted(vid, key=vid.get)
    to_a = CombMap(prod, a.domain, [u for u, _ in vpairs], edge_a, cell_a, 0)
    to_b = CombMap(prod, b.domain, [v for _, v in vpairs], edge_b, cell_b, 0)
    to_x = CombMap(prod, x, [a.vertex_image[u] for u, _ in vpairs], edge_img,
                   cell_img, 0)
    base = vid.get((a.basepoint, b.basepoint))
    if base is None:
        raise MapError("basepoints do not match over the codomain")
    to_a.basepoint = to_b.basepoint = to_x.basepoint = base
    return FiberProduct(prod, to_a, to_b, to_x, base)


def restrict_to_component(m: CombMap, vertex: int) -> CombMap:
    """Restriction of the map to the connected component of a vertex."""
    dom = m.domain
    seen = {vertex}
    frontier = [vertex]
    adj: list[list[int]] = [[] for _ in range(dom.num_vertices)]
    for e, (src, tgt) in enumerate(dom.edges):
        adj[src].append(tgt)
        adj[tgt].append(src)
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    vkeep = sorted(seen)
    vmap = {old: new for new, old in enumerate(vkeep)}
    ekeep = [e for e, (src, tgt) in enumerate(dom.edges) if src in seen]
    emap = {old: new for new, old in enumerate(ekeep)}

    def remap(d: int) -> int:
        e = emap[abs(d) - 1]
        return (e + 1) if d > 0 else -(e + 1)

    ckeep = [c for c, bdry in enumerate(dom.cells)
             if dom.tail(bdry[0]) in seen]
    new_dom = Complex2(
        len(vkeep),
        [(vmap[dom.edges[e][0]], vmap[dom.edges[e][1]]) for e in ekeep],
        [tuple(remap(d) for d in dom.cells[c]) for c in ckeep],
    )
    return CombMap(
        new_dom, m.codomain,
        [m.vertex_image[v] for v in vkeep],
        [m.edge_image[e] for e in ekeep],
        [m.cell_image[c] for c in ckeep],
        vmap[vertex],
    )


def reference_based_product(a: CombMap, b: CombMap) -> CombMap:
    fp = fiber_product(a, b)
    return restrict_to_component(fp.to_codomain, fp.based_vertex)


@dataclass
class ReferencePieceTable:
    pairs: dict[tuple[tuple[int, int, int], tuple[int, int, int]], int]
    max_from: list[list[int]]  # per cell, per start: longest piece read forward
    cell_max: list[int]

    def max_piece_length(self, c: int) -> int:
        return self.cell_max[c]


def _occ_letter(bdry: tuple[int, ...], i: int, s: int, k: int) -> int:
    m = len(bdry)
    if s > 0:
        return bdry[(i + k) % m]
    return -bdry[(i - k) % m]


def _excluded(ba: tuple[int, ...], bb: tuple[int, ...], i: int, s: int, j: int, t: int) -> bool:
    if len(ba) != len(bb):
        return False
    m = len(ba)
    if s == t:
        r = (j - i) % m
        return all(bb[(q + r) % m] == ba[q] for q in range(m))
    c = (i + j) % m
    return all(bb[(c - q) % m] == -ba[q] for q in range(m))


def reference_compute_pieces(x: Complex2) -> ReferencePieceTable:
    pairs: dict = {}
    ncells = len(x.cells)
    max_from = [[0] * len(b) for b in x.cells]
    for a in range(ncells):
        ba = x.cells[a]
        ma = len(ba)
        for b in range(ncells):
            bb = x.cells[b]
            mb = len(bb)
            cap = min(ma, mb)
            for s in (1, -1):
                for t in (1, -1):
                    for i in range(ma):
                        for j in range(mb):
                            if _excluded(ba, bb, i, s, j, t):
                                continue
                            L = 0
                            while L < cap and _occ_letter(ba, i, s, L) == _occ_letter(bb, j, t, L):
                                L += 1
                            if L >= 1:
                                pairs[((a, i, s), (b, j, t))] = L
                                if s == 1:
                                    max_from[a][i] = max(max_from[a][i], L)
    cell_max = [max(row) if row else 0 for row in max_from]
    return ReferencePieceTable(pairs, max_from, cell_max)


def _min_piece_cover(table: ReferencePieceTable, c: int, start: int, length: int) -> float:
    """Greedy longest-prefix piece cover of a boundary subpath; inf when
    some edge of it lies in no piece."""
    row = table.max_from[c]
    pos, remaining, count = start, length, 0
    while remaining > 0:
        step = min(row[pos % len(row)], remaining)
        if step == 0:
            return INF
        count += 1
        pos += step
        remaining -= step
    return count


def reference_check_sc_weight(x: Complex2, w: Weighting, variant: str = "C4T4",
                              strict: bool = False) -> Verdict:
    """Small-cancellation weight test: over every subpath S of a cell
    boundary made of at most 3 (C6T3) or 2 (C4T4) pieces, require
    P(S) <= n*Wt(R), strictly for the quasiconvexity form."""
    crit = f"sc-{variant.lower()}" + ("-strict" if strict else "")
    if variant not in _VARIANTS:
        raise CriterionError(f"unknown variant {variant!r}")
    p_cond, q_cond, shell = _VARIANTS[variant]
    table = reference_compute_pieces(x)
    assert (x.pieces.max_from, x.pieces.cell_max) == (table.max_from, table.cell_max)
    sc = check_small_cancellation(x, p_cond, q_cond)
    if not (sc.c_holds and sc.t_holds):
        return Verdict(crit, False, "none", applicable=False,
                       witnesses=list(sc.witnesses),
                       notes=[f"complex is not C({p_cond})-T({q_cond}) (T via link girth)"])
    worst = None  # (excess, cell, start, length, p_s, bound)
    for c, bdry in enumerate(x.cells):
        m = len(bdry)
        n = sum(bdry[k:] + bdry[:k] == bdry for k in range(m))  # the rotations fixing it
        bound = n * cell_weight(w, c)
        for start in range(m):
            for length in range(1, m + 1):
                if _min_piece_cover(table, c, start, length) > shell:
                    continue
                total = subpath_perimeter(w, c, start, length)
                excess = total - bound
                key = (-excess, c, start, length)
                if worst is None or key < worst[0]:
                    worst = (key, total, bound)
    if worst is None:
        return Verdict(crit, True, "both" if strict else "coherent",
                       notes=["no piece-bounded subpaths (no pieces)"])
    (neg_excess, c, start, length), p_s, bound = worst
    excess = -neg_excess
    holds = (excess < 0) if strict else (excess <= 0)
    if holds:
        conclusion = "both" if strict else "coherent"
    else:
        conclusion = "none"
    witnesses = []
    if not holds:
        word = Word(tuple(x.cells[c][(start + t) % len(x.cells[c])] for t in range(length)))
        witnesses.append(
            f"cell {c} subpath at {start} length {length}"
            f" ({'/'.join(str(d) for d in word.letters)}) has P = {p_s}"
            f" vs bound {bound}"
        )
    verdict = Verdict(crit, holds, conclusion, witnesses=witnesses,
                      notes=[f"worst subpath perimeter {p_s} vs n*Wt = {bound}"])
    verdict.extras["worst"] = {"cell": c, "start": start, "length": length,
                               "perimeter": p_s, "bound": bound}
    return verdict


def reference_check_one_relator_torsion(x: Complex2, w: Weighting) -> Verdict:
    """One-relator torsion test: P(S) <= n*Wt(R) for every boundary subpath
    shorter than the period, over every (start, length) in turn, for a
    period of at least 2 letters."""
    crit = "one-relator-torsion"
    if x.num_cells() != 1 or x.num_vertices != 1:
        return Verdict(crit, False, "none", applicable=False,
                       notes=["needs a unique 2-cell and a unique 0-cell"])
    p, n = x.periods[0]
    if n <= 1:
        return Verdict(crit, False, "none", applicable=False,
                       notes=["relator is not a proper power (exponent 1)"])
    assert p >= 2, "with a period of 1 letter no subpath is shorter than the period"
    bound = packet_weight(w, 0)
    worst = (-1, None)
    for start in range(x.boundary_length(0)):
        for length in range(1, p):
            total = subpath_perimeter(w, 0, start, length)
            if total > worst[0]:
                worst = (total, (start, length))
    holds = worst[0] <= bound
    witnesses = []
    if not holds:
        start, length = worst[1]
        witnesses.append(
            f"subpath at position {start} of length {length} has perimeter"
            f" {worst[0]} > {bound}"
        )
    return Verdict(crit, holds, "coherent" if holds else "none",
                   witnesses=witnesses,
                   notes=[f"max P(S) = {worst[0]} vs n*Wt(R) = {bound}"])


def word(letters) -> Word:
    return Word(tuple(letters))


def replace(obj, **changes):
    """A new record of obj's class, built by its constructor from obj's
    values of the constructor's parameters with `changes` applied."""
    params = inspect.signature(type(obj)).parameters
    return type(obj)(**({name: getattr(obj, name) for name in params} | changes))


@dataclass(frozen=True)
class CandidateQ:
    cell: int
    start: int
    length: int
    strict: bool  # P(S) < n*Wt(R); weak candidates satisfy <= only


def reference_candidate(x: Complex2, w: Weighting, cell: int, start: int, length: int,
                        mode: str) -> CandidateQ | None:
    """Q = (start, length) on the cell's boundary, or None when its
    complement S fails P(S) < n*Wt(R) (strict mode) or P(S) <= n*Wt(R) (weak
    mode); P(S) is summed edge by edge."""
    bdry = x.cells[cell]
    mlen = len(bdry)
    per = edge_perimeters(w)
    p_s = sum(per[abs(bdry[(start + length + t) % mlen]) - 1] for t in range(mlen - length))
    slack = x.periods[cell][1] * cell_weight(w, cell) - p_s
    if slack < 0 or (mode == "strict" and slack == 0):
        return None
    return CandidateQ(cell, start % mlen, length, slack > 0)


def reference_candidates(x: Complex2, w: Weighting, mode: str) -> list[CandidateQ]:
    """Every candidate by cell, start < period and length, each tested on
    its own."""
    return [cand for c, bdry in enumerate(x.cells)
            for start in range(x.periods[c][0])
            for length in range(1, len(bdry) + 1)
            if (cand := reference_candidate(x, w, c, start, length, mode))]


def reference_bouquet_map(x: Complex2, words: list[Word], whisker: Word | None = None) -> CombMap:
    """Wedge of subdivided circles (one per word) at the basepoint 0, with
    an optional open whisker arc ending at the last vertex, mapped along
    the given words; each arc's edges and fresh vertices are numbered on
    from the last, and the map is validated."""
    if x.num_vertices != 1:
        raise MapError("Domain.bouquet expects a one-vertex codomain")
    ngen = x.num_edges()
    for w in words:
        if not w.letters:
            raise MapError("bouquet words must be nonempty")
        if any(abs(ell) > ngen for ell in w.letters):
            raise MapError("word uses unknown generator")
    if whisker is not None and any(abs(ell) > ngen for ell in whisker.letters):
        raise MapError("word uses unknown generator")
    vertex_image = [0]
    edges: list[tuple[int, int]] = []
    edge_image: list[int] = []
    arcs = [(w.letters, 0) for w in words]
    if whisker is not None and whisker.letters:
        arcs.append((whisker.letters, None))
    for letters, v in arcs:
        u = 0
        for k, letter in enumerate(letters):
            if k == len(letters) - 1 and v is not None:
                nxt = v
            else:
                nxt = len(vertex_image)
                vertex_image.append(x.head(letter))
            edges.append((u, nxt))
            edge_image.append(letter)
            u = nxt
    m = CombMap(Complex2(len(vertex_image), edges, []), x, vertex_image, edge_image, [], 0)
    m.validate()
    return m


@dataclass
class FoldResult:
    map: CombMap
    vertex_map: list[int]
    edge_pair: tuple[int, int]  # the identified directed edges (pre-fold refs)


def apply_fold(m: CombMap, fold: tuple[int, int, int] | None = None) -> FoldResult:
    """Identify the two edges of one fold pair and rewrite everything through
    the quotient.  Image words of cells are immersed, so no cell boundary can
    backtrack after the identification."""
    if fold is None:
        fold = find_fold(m)
    if fold is None:
        raise MapError("no fold available")
    _v, d1, d2 = fold
    dom = m.domain
    h1, h2 = dom.head(d1), dom.head(d2)

    if h1 != h2:
        lo, hi = min(h1, h2), max(h1, h2)
        vmap = [i - (1 if i > hi else 0) for i in range(dom.num_vertices)]
        vmap[hi] = vmap[lo]
    else:
        vmap = list(range(dom.num_vertices))

    e_keep, e_drop = abs(d1) - 1, abs(d2) - 1
    sign = 1 if (d1 > 0) == (d2 > 0) else -1

    def emap(d: int) -> int:
        e = abs(d) - 1
        if e == e_drop:
            d_over_keep = (e_keep + 1) * sign
            mapped = d_over_keep if d > 0 else -d_over_keep
        else:
            mapped = d
        e2 = abs(mapped) - 1
        e2 -= 1 if e2 > e_drop else 0
        return (e2 + 1) if mapped > 0 else -(e2 + 1)

    new_edges = []
    new_edge_image = []
    for e, (src, tgt) in enumerate(dom.edges):
        if e == e_drop:
            continue
        new_edges.append((vmap[src], vmap[tgt]))
        new_edge_image.append(m.edge_image[e])
    new_cells = [tuple(emap(d) for d in bdry) for bdry in dom.cells]
    new_vertex_image = [None] * (dom.num_vertices - (1 if h1 != h2 else 0))
    for old, new in enumerate(vmap):
        new_vertex_image[new] = m.vertex_image[old]
    new_dom = Complex2(len(new_vertex_image), new_edges, new_cells)
    m2 = CombMap(new_dom, m.codomain, list(new_vertex_image), new_edge_image,
                 list(m.cell_image), vmap[m.basepoint])
    return FoldResult(m2, vmap, (d1, d2))


@dataclass
class AttachResult:
    map: CombMap
    vertex_map: list[int]
    cells_added: int
    complete: bool
    identified_endpoints: bool


def reference_attach_packet(m: CombMap, w: Weighting, site: AttachmentSite) -> AttachResult:
    """Glue the packet of the site's cell to the domain along the lifted Q.

    Q's lift is walked from the site's root with `out_edges`.  Complete
    sites first identify the endpoints of Q; incomplete sites add the
    complement as a fresh arc.  All packet cells missing over the resulting
    circle are attached.
    """
    if site.domain is not m.domain:
        raise StaleSiteError("attachment site refers to an outdated domain")
    x = m.codomain
    cell, start, length = site.cell, site.start, site.length
    bdry = x.cells[cell]
    mlen = len(bdry)
    dom = m.domain
    outs = out_edges(m)
    verts, edges = [site.root], []
    for k in range(length):
        edges.append(outs[verts[-1]][bdry[(start + k) % mlen]])
        verts.append(dom.head(edges[-1]))
    vmap = list(range(dom.num_vertices))
    identified = False

    if site.complete:
        if verts[0] != verts[-1]:
            lo, hi = sorted((verts[0], verts[-1]))
            vmap = [i - (1 if i > hi else 0) for i in range(dom.num_vertices)]
            vmap[hi] = vmap[lo]
            new_edges = [(vmap[s], vmap[t]) for s, t in dom.edges]
            dom = Complex2(dom.num_vertices - 1, new_edges, list(dom.cells))
            verts = [vmap[u] for u in verts]
            identified = True
        new_vertex_image = [0] * dom.num_vertices
        for old, new in enumerate(vmap):
            new_vertex_image[new] = m.vertex_image[old]
        cyc = [0] * mlen
        for k, d in enumerate(edges):
            cyc[(start + k) % mlen] = d
        m2 = CombMap(dom, x, new_vertex_image, list(m.edge_image),
                     list(m.cell_image), vmap[m.basepoint])
    else:
        new_edges = list(dom.edges)
        new_vertex_image = list(m.vertex_image)
        new_edge_image = list(m.edge_image)
        num_vertices = dom.num_vertices
        cyc = [0] * mlen
        for k, d in enumerate(edges):
            cyc[(start + k) % mlen] = d
        cur = verts[-1]
        for t in range(mlen - length):
            pos = (start + length + t) % mlen
            letter = bdry[pos]
            if t == mlen - length - 1:
                nxt = verts[0]
            else:
                nxt = num_vertices
                num_vertices += 1
                new_vertex_image.append(x.tail(bdry[(pos + 1) % mlen]))
            # orient the fresh edge along the traversal
            new_edges.append((cur, nxt))
            new_edge_image.append(letter)
            cyc[pos] = len(new_edges)
            cur = nxt
        dom = Complex2(num_vertices, new_edges, list(dom.cells))
        m2 = CombMap(dom, x, new_vertex_image, new_edge_image,
                     list(m.cell_image), m.basepoint)

    have = present_cycles(m2).get(cell, set())
    added = 0
    new_cells = list(m2.domain.cells)
    new_cell_image = list(m2.cell_image)
    for mate in packet_mates(x, cell, cyc):
        if mate in have:
            continue
        have.add(mate)
        new_cells.append(mate)
        new_cell_image.append((cell, 0, False))
        added += 1
    if added == 0:
        raise StaleSiteError("packet already present along the site")
    m2 = CombMap(replace(m2.domain, cells=new_cells), x, m2.vertex_image,
                 m2.edge_image, new_cell_image, m2.basepoint)
    return AttachResult(m2, vmap, added, site.complete, identified)


def reference_augment_with_cells(m: CombMap) -> CombMap:
    """Attach to every vertex one copy of each codomain 2-cell whose boundary
    passes through the vertex's image, glued at that vertex only."""
    x = m.codomain
    corners: dict[int, list[tuple[int, int]]] = {}
    for r, bdry in enumerate(x.cells):
        starts: dict[int, int] = {}
        for j, d in enumerate(bdry):
            starts.setdefault(x.tail(d), j)
        for v_img, j in starts.items():
            corners.setdefault(v_img, []).append((r, j))
    num_vertices = m.domain.num_vertices
    edges = list(m.domain.edges)
    cells = list(m.domain.cells)
    vertex_image = list(m.vertex_image)
    edge_image = list(m.edge_image)
    cell_image = list(m.cell_image)
    for v in range(m.domain.num_vertices):
        for r, j in corners.get(m.vertex_image[v], []):
            bdry = x.cells[r]
            mlen = len(bdry)
            refs = []
            cur = v
            for t in range(mlen):
                pos = (j + t) % mlen
                nxt = v if t == mlen - 1 else num_vertices
                if nxt != v:
                    vertex_image.append(x.tail(bdry[(pos + 1) % mlen]))
                    num_vertices += 1
                edges.append((cur, nxt))
                edge_image.append(bdry[pos])
                refs.append(len(edges))
                cur = nxt
            cells.append(tuple(refs))
            cell_image.append((r, j, False))
    dom = Complex2(num_vertices, edges, cells)
    return CombMap(dom, x, vertex_image, edge_image, cell_image, m.basepoint)


def reference_augment_domain(dom: Domain) -> None:
    """`Domain.augment` glued a copy at a time by the general operations:
    per root, ascending, and per codomain cell through its image, a fresh
    arc from the root to itself by `add_arc`, read from the first position
    j of the boundary at that image, then its cell by `_add_cell`, one side
    made present per edge."""
    x = dom.codomain
    for v in dom.vertex_numbers():
        for r, bdry in enumerate(x.cells):
            j = next((j for j, d in enumerate(bdry) if x.tail(d) == dom.vertex_image[v]), None)
            if j is not None:
                refs = dom.add_arc(v, v, bdry[j:] + bdry[:j])
                # the rewritten cycle has refs[(q - j) % len(refs)] at position q
                dom._add_cell((r, j, False), tuple(refs[-j:] + refs[:-j]))
                dom.packed = dom.packed and x.periods[r][1] == 1


class EagerDomain(Domain):
    """A `Domain` whose `identify` re-sorts a merged end list whole and
    whose `identify` and `fold_all` delete from `leaving` at once, so that
    `leaving` lists exactly the roots."""

    def identify(self, u: int, v: int) -> None:
        if u == v:
            return
        lo, hi = min(u, v), max(u, v)
        star, heap = self.stars[lo], self.heap
        for img, moved in self.stars[hi].items():
            roots = self.leaving[img]
            del roots[bisect.bisect_left(roots, hi)]
            into = star.get(img)
            if into is None:
                bisect.insort(roots, lo)
                star[img] = into = moved
            else:
                into += moved
                into.sort()
            if len(into) > 1:
                heapq.heappush(heap, (lo, img))
        self.parent[hi], self.stars[hi] = lo, None
        self.num_vertices -= 1

    def fold_all(self, limit: int | None = None
                 ) -> tuple[list[tuple[int, int, int, int, int, int]], bool]:
        heap, parent, stars, edges, cycles = (self.heap, self.parent, self.stars, self.edges,
                                              self.cycles)
        folds = []
        while heap:
            v, img = heap[0]
            ends = stars[v].get(img) if parent[v] == v else None
            if ends is None or len(ends) < 2:
                heapq.heappop(heap)
                continue
            if limit is not None and len(folds) >= limit:
                return folds, True
            d1, d2 = ends[0], ends[1]
            del ends[1]
            h1, h2 = self.head(d1), self.head(d2)
            back = stars[h2][-img]
            del back[bisect.bisect_left(back, -d2)]
            if not back:
                del stars[h2][-img]
                roots = self.leaving[-img]
                del roots[bisect.bisect_left(roots, h2)]
            keep, drop = abs(d1) - 1, abs(d2) - 1
            self.dropped.add(drop)
            self.num_edges -= 1
            self.perimeter -= self.per[abs(self.edge_image[drop]) - 1]
            moved = self.sides.pop(drop, None)
            if moved:
                through = set()
                for (r, q), cells in moved.items():
                    self.perimeter += self.weights[r][q]
                    self._make_present(keep, (r, q), cells)
                    through |= cells
                over = keep + 1 if (d1 > 0) == (d2 > 0) else -(keep + 1)
                onto = {drop + 1: over, -(drop + 1): -over}
                for c in through:
                    cycles[c] = tuple(onto.get(d, d) for d in cycles[c])
                    self._mark_twins(c)
            self.identify(h1, h2)
            folds.append((d1, d2, self.perimeter, self.num_edges, self.num_vertices,
                          self.num_cells))
        return folds, False


def reference_extract_presentation(m: CombMap) -> Presentation:
    """Contract a breadth-first spanning tree; non-tree edges generate and the
    2-cell boundaries, rewritten over them, relate.  Each vertex's ends are
    sorted by (|d|, -d), and every head is read by `Complex2.head`."""
    dom = m.domain
    incident: list[list[int]] = [[] for _ in range(dom.num_vertices)]
    for e in range(dom.num_edges()):
        incident[dom.tail(e + 1)].append(e + 1)
        incident[dom.head(e + 1)].append(-(e + 1))
    for lst in incident:
        lst.sort(key=lambda d: (abs(d), -d))
    tree_edges: set[int] = set()
    seen = {m.basepoint}
    queue = [m.basepoint]
    while queue:
        v = queue.pop(0)
        for d in incident[v]:
            u = dom.head(d)
            if u not in seen:
                seen.add(u)
                tree_edges.add(abs(d) - 1)
                queue.append(u)
    if len(seen) != dom.num_vertices:
        raise EngineError("extract_presentation requires a connected domain")
    gens = [e for e in range(dom.num_edges()) if e not in tree_edges]
    gen_of = {e: i + 1 for i, e in enumerate(gens)}
    names = tuple(f"x{i + 1}" for i in range(len(gens)))
    relators = []
    for bdry in dom.cells:
        letters = []
        for d in bdry:
            e = abs(d) - 1
            if e in tree_edges:
                continue
            letters.append(gen_of[e] if d > 0 else -gen_of[e])
        word = cyclic_reduce(Word(tuple(letters)))
        if word.letters:
            relators.append(word)
    return Presentation(names, tuple(relators))


def present_cycles(m: CombMap) -> dict[int, set[tuple[int, ...]]]:
    """Per codomain cell: the rewritten cycles of the domain cells over it."""
    present: dict[int, set[tuple[int, ...]]] = {}
    for c in range(m.domain.num_cells()):
        present.setdefault(m.cell_image[c][0], set()).add(m.rewritten_cycle(c))
    return present


def present_corners(dom: Domain) -> set[tuple[int, int, int]]:
    """(r, q mod period, d) for each ref d at position q of the cycle of
    a live cell over r: each corner of a present cycle, keyed by the end
    that leaves it."""
    periods = dom.codomain.periods
    return {(r, q % periods[r][0], d)
            for cycle, (r, _offset, _reflected) in zip(dom.cycles, dom.cell_image)
            if cycle is not None for q, d in enumerate(cycle)}


def repeated_cells(dom: Domain) -> set[int]:
    """The live cells whose (target cell, cycle) is that of a smaller live
    cell."""
    seen, repeated = set(), set()
    for c, (cycle, image) in enumerate(zip(dom.cycles, dom.cell_image)):
        if cycle is not None:
            if (image[0], cycle) in seen:
                repeated.add(c)
            seen.add((image[0], cycle))
    return repeated


def reference_remove_redundant(m: CombMap) -> tuple[CombMap, int]:
    """Drop all but the first of each family of cells with equal image cell
    and equal rewritten cycle; the map itself when there is none."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    keep = []
    for c in range(m.domain.num_cells()):
        key = (m.cell_image[c][0], m.rewritten_cycle(c))
        if key not in seen:
            seen.add(key)
            keep.append(c)
    removed = m.domain.num_cells() - len(keep)
    if not removed:
        return m, 0
    return CombMap(replace(m.domain, cells=[m.domain.cells[c] for c in keep]), m.codomain,
                   list(m.vertex_image), list(m.edge_image), [m.cell_image[c] for c in keep],
                   m.basepoint), removed


def reference_repair_packing(m: CombMap) -> tuple[CombMap, int]:
    """Glue, after the existing cells, the missing packet mates of each
    cycle of `present_cycles` in its iteration order; the map itself when
    none is missing."""
    cells = []
    for r, cycles in present_cycles(m).items():
        for cycle in list(cycles):
            for mate in packet_mates(m.codomain, r, cycle):
                if mate not in cycles:
                    cycles.add(mate)
                    cells.append((r, mate))
    if not cells:
        return m, 0
    return CombMap(replace(m.domain, cells=list(m.domain.cells) + [c for _r, c in cells]),
                   m.codomain, list(m.vertex_image), list(m.edge_image),
                   list(m.cell_image) + [(r, 0, False) for r, _c in cells], m.basepoint), \
        len(cells)


def out_edges(m: CombMap) -> list[dict[int, int]]:
    """Per vertex: image directed edge -> domain directed edge; single-valued
    only for 1-immersions."""
    outs: list[dict[int, int]] = [{} for _ in range(m.domain.num_vertices)]
    for e in range(m.domain.num_edges()):
        for d in (e + 1, -(e + 1)):
            outs[m.domain.tail(d)][m.image_of(d)] = d
    return outs


def _grow_to_maximal(m: CombMap, outs, x: Complex2, cell: int, start: int,
                     verts: list[int], edges: list[int]) -> int:
    """Extend a lifted subpath in both ∂R and Y until no extension exists
    (forward first); returns the new start position."""
    bdry = x.cells[cell]
    mlen = len(bdry)
    while len(edges) < mlen:
        nxt = outs[verts[-1]].get(bdry[(start + len(edges)) % mlen])
        if nxt is None:
            break
        edges.append(nxt)
        verts.append(m.domain.head(nxt))
    while len(edges) < mlen:
        letter = bdry[(start - 1) % mlen]
        back = outs[verts[0]].get(-letter)
        if back is None:
            break
        edges.insert(0, -back)
        verts.insert(0, m.domain.head(back))
        start = (start - 1) % mlen
    return start


def reference_find_attachment(m: CombMap, w: Weighting,
                              mode: str = "strict") -> AttachmentSite | None:
    """Deterministic scan of a 1-immersion for an attachment site, in the
    order of `perifold.engine.find_site`; the site's root, the first vertex
    of the grown lift, is a vertex of `m.domain`."""
    x = m.codomain
    outs = out_edges(m)
    if sum(map(len, outs)) < 2 * m.domain.num_edges():
        raise EngineError("reference_find_attachment requires a 1-immersion")
    sign = -1 if mode == "strict" else 1
    ordered = sorted(reference_candidates(x, w, mode),
                     key=lambda c: (sign * c.length, c.cell, c.start))
    cycles = present_cycles(m)
    for cand in ordered:
        bdry = x.cells[cand.cell]
        mlen = len(bdry)
        first = bdry[cand.start % mlen]
        for v in range(m.domain.num_vertices):
            d0 = outs[v].get(first)
            if d0 is None:
                continue
            verts = [v, m.domain.head(d0)]
            edges = [d0]
            dead = False
            for k in range(1, cand.length):
                nxt = outs[verts[-1]].get(bdry[(cand.start + k) % mlen])
                if nxt is None:
                    dead = True
                    break
                edges.append(nxt)
                verts.append(m.domain.head(nxt))
            if dead:
                continue
            start = _grow_to_maximal(m, outs, x, cand.cell, cand.start, verts, edges)
            if mode == "weak" and len(edges) != cand.length:
                continue  # will be scanned at its maximal length
            if len(edges) == mlen:
                if verts[0] == verts[-1]:
                    cyc = [0] * mlen
                    for k, d in enumerate(edges):
                        cyc[(start + k) % mlen] = d
                    have = cycles.get(cand.cell, set())
                    if all(mate in have for mate in packet_mates(x, cand.cell, cyc)):
                        continue
                complete = True
            else:
                complete = False
            grown = reference_candidate(x, w, cand.cell, start, len(edges), mode)
            if grown is None:
                continue
            return AttachmentSite(grown.cell, grown.start, grown.length, verts[0], complete,
                                  m.domain)
    return None


# --- map-level entries and fixture maps --------------------------------------


def vertex_map(dom: Domain, vertices) -> list[int]:
    """The vertex of `dom.to_map()` that each given vertex id lies in."""
    vertex = dom.vertex_numbers()
    return [vertex[dom.find(v)] for v in vertices]


@dataclass
class ReduceResult:
    map: CombMap
    trace: ReductionTrace
    vertex_tracking: list[int]  # original domain vertex -> final vertex
    exhausted: bool


def reduce_map(m: CombMap, w: Weighting, mode: str = "strict",
               step_limit: int | None = None, verify: bool = False) -> ReduceResult:
    """`reduce_domain` on the map's domain; the map is built once, at the end."""
    dom = Domain(m, w)  # refuses a weighting of another complex
    trace, exhausted = reduce_domain(dom, mode, step_limit, verify)
    return ReduceResult(dom.to_map() if trace.steps else m, trace,
                        vertex_map(dom, range(m.domain.num_vertices)), exhausted)


@dataclass
class FoldToImmersionResult:
    map: CombMap
    folds: list[tuple[int, int]]  # identified directed edges, as refs of the input map
    removed_cells: int
    vertex_map: list[int]


def fold_to_immersion(m: CombMap) -> FoldToImmersionResult:
    """Stallings folding in exactly the order of repeated `find_fold`, one
    fold at a time (`Domain.fold_all(1)`), then `remove_redundant`.  With no
    fold and no redundant cell the input map itself is kept."""
    dom = Domain(m, unit_weighting(m.codomain))
    folds = []
    while made := dom.fold_all(1)[0]:
        folds.append(made[0][:2])
    removed = dom.remove_redundant()
    return FoldToImmersionResult(dom.to_map() if folds or removed else m, folds, removed,
                                 vertex_map(dom, range(m.domain.num_vertices)))


def canonical_form(m: CombMap):
    """Canonical description of a connected 1-immersed based map, used to
    compare fold results for isomorphism regardless of fold order."""
    if find_fold(m) is not None:
        raise MapError("canonical_form requires a 1-immersion")
    stars = end_stars(m)
    order = {m.basepoint: 0}
    queue = [m.basepoint]
    while queue:
        v = queue.pop(0)
        for _img, (d,) in sorted(stars[v].items()):
            w = m.domain.head(d)
            if w not in order:
                order[w] = len(order)
                queue.append(w)
    if len(order) != m.domain.num_vertices:
        raise MapError("canonical_form requires a connected domain")
    edge_entries = []
    for e in range(m.domain.num_edges()):
        src, tgt = m.domain.edges[e]
        fwd = (order[src], order[tgt], m.edge_image[e])
        bwd = (order[tgt], order[src], -m.edge_image[e])
        if fwd <= bwd:
            edge_entries.append((fwd, e, 1))
        else:
            edge_entries.append((bwd, e, -1))
    edge_entries.sort()
    canon_ref = {}
    for new_idx, (_entry, e, sign) in enumerate(edge_entries):
        canon_ref[e + 1] = (new_idx + 1) * sign
        canon_ref[-(e + 1)] = -(new_idx + 1) * sign
    cell_entries = sorted(
        (m.cell_image[c][0], tuple(canon_ref[d] for d in m.rewritten_cycle(c)))
        for c in range(m.domain.num_cells())
    )
    return (
        tuple(entry for entry, _e, _s in edge_entries),
        tuple(cell_entries),
    )


def isomorphic_maps(a: CombMap, b: CombMap) -> bool:
    return a.codomain == b.codomain and canonical_form(a) == canonical_form(b)


def build_packet(x: Complex2, c: int) -> CombMap:
    """The projection of the packet of cell c: a circle of n*|W| edges
    carrying the boundary word of c, with n cells attached along the full
    circle at offsets 0, |W|, ..., (n-1)|W|."""
    bdry = x.cells[c]
    m = len(bdry)
    p, n = x.periods[c]
    circle = Complex2(m, [(q, (q + 1) % m) for q in range(m)],
                      [tuple((k * p + j) % m + 1 for j in range(m)) for k in range(n)])
    proj = CombMap(circle, x, [x.tail(d) for d in bdry], list(bdry), [(c, 0, False)] * n, 0)
    proj.validate()
    return proj


def identity_map(x: Complex2, basepoint: int = 0) -> CombMap:
    return CombMap(x, x, list(range(x.num_vertices)), [e + 1 for e in range(x.num_edges())],
                   [(c, 0, False) for c in range(x.num_cells())], basepoint)
