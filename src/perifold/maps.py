"""Combinatorial maps between 2-complexes.

A map stores per-vertex and per-edge images (edge images signed) plus, for
each domain 2-cell, a triple (target cell, offset, reflected) describing how
the domain boundary sits over the target boundary:

    reflected = False:  image of boundary[j]  ==  target_boundary[(offset + j) % m]
    reflected = True:   image of boundary[j]  == -target_boundary[(offset - j) % m]

The rewritten cycle of a domain cell lists, for every target boundary
position q, the domain directed edge lying over it.  Two domain cells are the
same lift exactly when their rewritten cycles agree, which makes redundancy,
packedness and side presence straightforward to state.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, replace

from .complexes import Complex2
from .words import Word


class MapError(ValueError):
    pass


@dataclass
class CombMap:
    domain: Complex2
    codomain: Complex2
    vertex_image: list[int]
    edge_image: list[int]  # signed codomain edge ref per positive domain edge
    cell_image: list[tuple[int, int, bool]]  # (cell, offset, reflected)
    basepoint: int = 0

    def image_of(self, d: int) -> int:
        img = self.edge_image[abs(d) - 1]
        return img if d > 0 else -img

    def validate(self) -> None:
        dom, cod = self.domain, self.codomain
        dom.validate()
        cod.validate()
        if len(self.vertex_image) != dom.num_vertices:
            raise MapError("vertex image size mismatch")
        if len(self.edge_image) != dom.num_edges():
            raise MapError("edge image size mismatch")
        if len(self.cell_image) != dom.num_cells():
            raise MapError("cell image size mismatch")
        if not (0 <= self.basepoint < dom.num_vertices):
            raise MapError("basepoint out of range")
        for e, (src, tgt) in enumerate(dom.edges):
            img = self.edge_image[e]
            if img == 0 or abs(img) > cod.num_edges():
                raise MapError(f"edge {e} image out of range")
            if self.vertex_image[src] != cod.tail(img) or self.vertex_image[tgt] != cod.head(img):
                raise MapError(f"edge {e} image endpoint mismatch")
        for c, (r, offset, reflected) in enumerate(self.cell_image):
            if not (0 <= r < cod.num_cells()):
                raise MapError(f"cell {c} image out of range")
            bdry = dom.cells[c]
            target = cod.cells[r]
            m = len(target)
            if len(bdry) != m:
                raise MapError(f"cell {c} boundary length mismatch")
            for j, d in enumerate(bdry):
                if reflected:
                    want = -target[(offset - j) % m]
                else:
                    want = target[(offset + j) % m]
                if self.image_of(d) != want:
                    raise MapError(f"cell {c} boundary incompatible at {j}")

    # -- derived data --------------------------------------------------------

    def out_edges(self) -> list[dict[int, int]]:
        """Per vertex: image directed edge -> domain directed edge.

        Only well defined (single-valued) for 1-immersions; `end_stars` keeps
        every end while duplicates may exist.
        """
        outs: list[dict[int, int]] = [dict() for _ in range(self.domain.num_vertices)]
        for e in range(self.domain.num_edges()):
            for d in (e + 1, -(e + 1)):
                outs[self.domain.tail(d)][self.image_of(d)] = d
        return outs

    def rewritten_cycle(self, c: int) -> tuple[int, ...]:
        """Domain directed edge over each target boundary position."""
        r, offset, reflected = self.cell_image[c]
        bdry = self.domain.cells[c]
        m = len(bdry)
        if reflected:
            return tuple(-bdry[(offset - q) % m] for q in range(m))
        return tuple(bdry[(q - offset) % m] for q in range(m))


def identity_map(x: Complex2, basepoint: int = 0) -> CombMap:
    return CombMap(
        x, x,
        list(range(x.num_vertices)),
        [e + 1 for e in range(x.num_edges())],
        [(c, 0, False) for c in range(x.num_cells())],
        basepoint,
    )


@dataclass
class PathInY:
    complex: Complex2
    vertices: tuple[int, ...]
    edges: tuple[int, ...]  # signed refs; len(vertices) == len(edges) + 1

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise MapError("path vertex/edge count mismatch")
        for v, d, w in zip(self.vertices, self.edges, self.vertices[1:]):
            if self.complex.tail(d) != v or self.complex.head(d) != w:
                raise MapError("path does not chain")

    def __len__(self) -> int:
        return len(self.edges)

    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]


def path_from_edges(x: Complex2, start: int, edges) -> PathInY:
    vertices = [start]
    for d in edges:
        vertices.append(x.head(d))
    return PathInY(x, tuple(vertices), tuple(edges))


# --- changing the domain ----------------------------------------------------


def append_arc(x: Complex2, edges: list[tuple[int, int]], edge_image: list[int],
               vertex_image: list[int], u: int, v: int | None, letters) -> list[int]:
    """Append to a domain's edge and vertex lists an arc over `letters` from
    vertex u to vertex v, or to a fresh vertex when v is None.  Edges are
    oriented along the arc and numbered on from the last; each fresh vertex
    is numbered on from the last and maps to the head of its letter.
    Returns the arc's edge refs."""
    refs = []
    last = len(letters) - 1
    for k, letter in enumerate(letters):
        if k == last and v is not None:
            nxt = v
        else:
            nxt = len(vertex_image)
            vertex_image.append(x.head(letter))
        edges.append((u, nxt))
        edge_image.append(letter)
        refs.append(len(edges))
        u = nxt
    return refs


def with_arc(m: CombMap, u: int, v: int | None, letters) -> tuple[CombMap, list[int]]:
    """The map with an arc over `letters` from u to v added (`append_arc`),
    and the arc's edge refs."""
    edges, edge_image = list(m.domain.edges), list(m.edge_image)
    vertex_image = list(m.vertex_image)
    refs = append_arc(m.codomain, edges, edge_image, vertex_image, u, v, letters)
    dom = Complex2(len(vertex_image), edges, list(m.domain.cells))
    return (CombMap(dom, m.codomain, vertex_image, edge_image, list(m.cell_image),
                    m.basepoint), refs)


def identify_vertices(m: CombMap, u: int, v: int) -> tuple[CombMap, list[int]]:
    """The map with vertices u and v identified, and the input -> output
    vertex map.  The larger-numbered vertex merges into the smaller and the
    vertices above it move down by one, the numbering a fold gives; edge
    refs and cell boundaries stay as they are.  With u == v the map itself
    is returned."""
    dom = m.domain
    if u == v:
        return m, list(range(dom.num_vertices))
    if m.vertex_image[u] != m.vertex_image[v]:
        raise MapError("identified vertices must have the same image")
    lo, hi = min(u, v), max(u, v)
    vmap = [i - (i > hi) for i in range(dom.num_vertices)]
    vmap[hi] = vmap[lo]
    new_dom = Complex2(dom.num_vertices - 1, [(vmap[s], vmap[t]) for s, t in dom.edges],
                       list(dom.cells))
    return (CombMap(new_dom, m.codomain, m.vertex_image[:hi] + m.vertex_image[hi + 1:],
                    list(m.edge_image), list(m.cell_image), vmap[m.basepoint]), vmap)


# --- bouquets ---------------------------------------------------------------


def bouquet_map(x: Complex2, words: list[Word], whisker: Word | None = None) -> CombMap:
    """Wedge of subdivided circles (one per word) at a basepoint, with an
    optional open whisker arc, mapped along the given words."""
    if x.num_vertices != 1:
        raise MapError("bouquet_map expects a one-vertex codomain")
    ngen = x.num_edges()
    for w in words:
        if not w.letters:
            raise MapError("bouquet words must be nonempty")
        if any(abs(ell) > ngen for ell in w.letters):
            raise MapError("word uses unknown generator")
    vertex_image = [0]
    edges: list[tuple[int, int]] = []
    edge_image: list[int] = []
    for w in words:
        append_arc(x, edges, edge_image, vertex_image, 0, 0, w.letters)
    if whisker is not None and whisker.letters:
        append_arc(x, edges, edge_image, vertex_image, 0, None, whisker.letters)
    dom = Complex2(len(vertex_image), edges, [])
    m = CombMap(dom, x, vertex_image, edge_image, [], 0)
    m.validate()
    return m


def whisker_tip(m: CombMap) -> int:
    """Endpoint of the open arc of a bouquet-with-whisker (the last vertex)."""
    return m.domain.num_vertices - 1


# --- folding ----------------------------------------------------------------


def end_stars(m: CombMap) -> list[dict[int, list[int]]]:
    """Per vertex: image directed edge -> every domain directed edge over it
    leaving that vertex, in edge order; unlike `out_edges`, also for maps
    that are not immersions."""
    stars: list[dict[int, list[int]]] = [{} for _ in range(m.domain.num_vertices)]
    for e, (src, tgt) in enumerate(m.domain.edges):
        stars[src].setdefault(m.edge_image[e], []).append(e + 1)
        stars[tgt].setdefault(-m.edge_image[e], []).append(-(e + 1))
    return stars


def find_fold(m: CombMap) -> tuple[int, int, int] | None:
    """First (vertex, d1, d2) with two distinct edge-ends sharing an image:
    at the first vertex with a repeated image, the smallest such image and
    the two smallest refs over it."""
    for v, star in enumerate(end_stars(m)):
        img = min((img for img, ends in star.items() if len(ends) > 1), default=None)
        if img is not None:
            d1, d2 = sorted(star[img])[:2]
            return v, d1, d2
    return None


def is_1_immersion(m: CombMap) -> tuple[bool, tuple[int, int, int] | None]:
    w = find_fold(m)
    return (w is None), w


def remove_redundant(m: CombMap) -> tuple[CombMap, int]:
    """Drop all but one of each family of cells with equal image cell and
    equal rewritten cycle; the perimeter is unchanged."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    keep: list[int] = []
    for c in range(m.domain.num_cells()):
        key = (m.cell_image[c][0], m.rewritten_cycle(c))
        if key in seen:
            continue
        seen.add(key)
        keep.append(c)
    removed = m.domain.num_cells() - len(keep)
    if removed == 0:
        return m, 0
    dom = replace(m.domain, cells=[m.domain.cells[c] for c in keep])
    m2 = CombMap(dom, m.codomain, list(m.vertex_image), list(m.edge_image),
                 [m.cell_image[c] for c in keep], m.basepoint)
    return m2, removed


@dataclass
class FoldToImmersionResult:
    map: CombMap
    folds: list[tuple[int, int]]  # identified directed edges, as refs of the input map
    removed_cells: int
    vertex_map: list[int]
    pending: bool = False  # the fold limit stopped the run with a fold left


def fold_to_immersion(m: CombMap, limit: int | None = None,
                      on_fold=None) -> FoldToImmersionResult:
    """Stallings folding in one pass, then `remove_redundant`.

    Folds in exactly the order of repeated `find_fold`, one fold at a time:
    the first current vertex with a repeated image, its smallest such image
    and the two smallest directed edges over it.  Current numberings are
    monotone in the input's, so vertex classes are kept in a union-find
    whose root is the smallest input vertex, and each root's star maps an
    image to the sorted input refs of the edge ends over it.  A dropped edge
    points at the edge it was identified with, and the map is built once at
    the end; with no fold the input map itself is kept.

    At most `limit` folds are made.  `on_fold(d1, d2, merged)` is called
    after each fold with the identified input refs (d2's edge is dropped
    into d1's) and whether their heads were distinct vertices.
    """
    dom = m.domain
    nv = dom.num_vertices
    parent = list(range(nv))
    stars: list[dict[int, list[int]] | None] = end_stars(m)
    degree = [sum(map(len, star.values())) for star in stars]
    for star in stars:
        for ends in star.values():
            ends.sort()

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def repeated(v: int) -> int | None:
        return min((img for img, ends in stars[v].items() if len(ends) > 1), default=None)

    heap = [v for v in range(nv) if repeated(v) is not None]
    link: dict[int, tuple[int, int]] = {}  # dropped edge -> (edge it joined, sign)
    folds: list[tuple[int, int]] = []
    pending = False
    while heap:
        v = heap[0]
        img = repeated(v) if parent[v] == v else None
        if img is None:
            heapq.heappop(heap)
            continue
        if limit is not None and len(folds) >= limit:
            pending = True
            break
        ends = stars[v][img]
        d1, d2 = ends[0], ends.pop(1)
        h1, h2 = find(dom.head(d1)), find(dom.head(d2))
        back = stars[h2][-img]
        del back[bisect.bisect_left(back, -d2)]
        if not back:
            del stars[h2][-img]
        degree[v] -= 1
        degree[h2] -= 1
        link[abs(d2) - 1] = (abs(d1) - 1, 1 if (d1 > 0) == (d2 > 0) else -1)
        folds.append((d1, d2))
        if h1 != h2:
            lo, hi = min(h1, h2), max(h1, h2)
            big, small = stars[lo], stars[hi]
            if degree[lo] < degree[hi]:
                big, small = small, big
            for im, moved in small.items():
                into = big.get(im)
                if into is None:
                    big[im] = moved
                else:
                    for d in moved:
                        bisect.insort(into, d)
            parent[hi] = lo
            stars[lo], stars[hi] = big, None
            degree[lo] += degree[hi]
            heapq.heappush(heap, lo)
        if on_fold is not None:
            on_fold(d1, d2, h1 != h2)
    if folds:
        m, vmap = _quotient(m, find, link)
    else:
        vmap = list(range(nv))
    m, removed = remove_redundant(m)
    return FoldToImmersionResult(m, folds, removed, vmap, pending)


def _quotient(m: CombMap, find, link: dict[int, tuple[int, int]]) -> tuple[CombMap, list[int]]:
    """The folded map: vertex classes numbered by their smallest input
    vertex, surviving edges in input order, cell boundaries rewritten onto
    the surviving edges; also the input -> output vertex map."""
    dom = m.domain
    roots = [v for v in range(dom.num_vertices) if find(v) == v]
    index = {r: i for i, r in enumerate(roots)}
    vmap = [index[find(v)] for v in range(dom.num_vertices)]
    ref = [0] * dom.num_edges()  # surviving edge -> output ref
    new_edges = []
    new_edge_image = []
    for e, (src, tgt) in enumerate(dom.edges):
        if e not in link:
            new_edges.append((vmap[src], vmap[tgt]))
            new_edge_image.append(m.edge_image[e])
            ref[e] = len(new_edges)

    def resolve(d: int) -> int:
        e = abs(d) - 1
        chain = []
        while e in link:
            chain.append(e)
            e = link[e][0]
        sign = 1
        for c in reversed(chain):  # compress the chain onto the survivor e
            sign *= link[c][1]
            link[c] = (e, sign)
        return ref[e] * sign if d > 0 else -ref[e] * sign

    new_cells = [tuple(resolve(d) for d in bdry) for bdry in dom.cells]
    new_vertex_image = [m.vertex_image[r] for r in roots]
    new_dom = Complex2(len(roots), new_edges, new_cells)
    return (CombMap(new_dom, m.codomain, new_vertex_image, new_edge_image,
                    list(m.cell_image), vmap[m.basepoint]), vmap)


# --- packets ----------------------------------------------------------------


@dataclass
class Packet:
    complex: Complex2
    projection: CombMap
    cell_offsets: tuple[int, ...]


def build_packet(x: Complex2, c: int) -> Packet:
    """Circle of n*|W| edges carrying the boundary word of c, with n cells
    attached along the full circle at offsets 0, |W|, ..., (n-1)|W|."""
    bdry = x.cells[c]
    m = len(bdry)
    p, n = x.periods[c]
    edges = [(q, (q + 1) % m) for q in range(m)]
    cells = [tuple((k * p + j) % m + 1 for j in range(m)) for k in range(n)]
    circle = Complex2(m, edges, cells)
    vertex_image = [x.tail(bdry[q]) for q in range(m)]
    proj = CombMap(circle, x, vertex_image, list(bdry),
                   [(c, 0, False) for _ in range(n)], 0)
    proj.validate()
    return Packet(circle, proj, tuple(k * p for k in range(n)))


def present_cycles(m: CombMap) -> dict[int, set[tuple[int, ...]]]:
    """Per codomain cell: the rewritten cycles of the domain cells over it."""
    present: dict[int, set[tuple[int, ...]]] = {}
    for c in range(m.domain.num_cells()):
        present.setdefault(m.cell_image[c][0], set()).add(m.rewritten_cycle(c))
    return present


def packet_mates(x: Complex2, r: int, cycle) -> list[tuple[int, ...]]:
    """Rewritten cycles of the packet of cell r through a cycle over r: its
    rotations by the multiples of the period, the cycle itself first."""
    p, n = x.periods[r]
    cycle = tuple(cycle)
    return [cycle[k * p:] + cycle[:k * p] for k in range(n)]


def is_packed(m: CombMap) -> tuple[bool, tuple[int, int] | None]:
    """Packed iff every lift of a 2-cell extends to a lift of its packet,
    i.e. all period rotations of its rewritten cycle are present as cells."""
    present = present_cycles(m)
    for c in range(m.domain.num_cells()):
        r = m.cell_image[c][0]
        for k, mate in enumerate(packet_mates(m.codomain, r, m.rewritten_cycle(c))):
            if mate not in present[r]:
                return False, (c, k)
    return True, None


def missing_mates(x: Complex2, r: int, cycle,
                  have: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The packet mates of a cycle over cell r that are not in `have`, in
    `packet_mates` order; each is added to `have`."""
    missing = []
    for mate in packet_mates(x, r, cycle):
        if mate not in have:
            have.add(mate)
            missing.append(mate)
    return missing


def with_cells(m: CombMap, cells: list[tuple[int, tuple[int, ...]]]) -> CombMap:
    """The map with a 2-cell over target cell r glued along each given
    (r, rewritten cycle), in order; the map itself when there is none."""
    if not cells:
        return m
    dom = replace(m.domain, cells=list(m.domain.cells) + [cyc for _r, cyc in cells])
    return CombMap(dom, m.codomain, list(m.vertex_image), list(m.edge_image),
                   list(m.cell_image) + [(r, 0, False) for r, _cyc in cells], m.basepoint)


def repair_packing(m: CombMap) -> tuple[CombMap, int]:
    """Attach the missing packet mates along existing boundary circles.

    Adds 2-cells only (no new 1-cells), so the perimeter cannot increase.
    """
    cells = []
    for r, cycles in present_cycles(m).items():
        for cyc in list(cycles):
            cells += [(r, mate) for mate in missing_mates(m.codomain, r, cyc, cycles)]
    return with_cells(m, cells), len(cells)


# --- path lifting -----------------------------------------------------------


def lift_path(m: CombMap, path: PathInY, start: int) -> PathInY | None:
    """Unique lift of a codomain path from a domain vertex; None if it dies.

    Requires a 1-immersion (lifts are then unique) and that the image of
    start matches the start of the path.
    """
    ok, _ = is_1_immersion(m)
    if not ok:
        raise MapError("lift_path requires a 1-immersion")
    if m.vertex_image[start] != path.vertices[0]:
        raise MapError("start vertex image mismatch")
    outs = m.out_edges()
    verts = [start]
    edges: list[int] = []
    cur = start
    for d in path.edges:
        lifted = outs[cur].get(d)
        if lifted is None:
            return None
        edges.append(lifted)
        cur = m.domain.head(lifted)
        verts.append(cur)
    return PathInY(m.domain, tuple(verts), tuple(edges))


# --- fiber products ---------------------------------------------------------


def based_fiber_product(a: CombMap, b: CombMap) -> CombMap:
    """The based component of the fiber product of two maps, as a map to
    their common codomain.

    Vertices are the image-matching vertex pairs reached from the basepoint
    pair, numbered in sorted order; edges are the image-matching edge pairs
    between them, oriented over the positive codomain edge and numbered by
    (a-edge, b-edge); each pair of 2-cells over a common target cell whose
    rewritten cycles start at a reached pair gives the cell whose boundary
    pairs those cycles position by position, numbered by (a-cell, b-cell).
    This is the numbering of the all-pairs product restricted to the
    component.  Neither map need be an immersion: every pair of ends with
    equal image is followed.
    """
    if a.codomain != b.codomain:
        raise MapError("fiber product needs a common codomain")
    base = (a.basepoint, b.basepoint)
    if a.vertex_image[base[0]] != b.vertex_image[base[1]]:
        raise MapError("basepoints do not match over the codomain")

    star_a, star_b = end_stars(a), end_stars(b)
    seen = {base}
    stack = [base]
    pairs: list[tuple[int, int]] = []  # (a-end, b-end) over positive codomain edges
    while stack:
        u, v = stack.pop()
        for img, ends_a in star_a[u].items():
            ends_b = star_b[v].get(img, ())
            for da in ends_a:
                for db in ends_b:
                    if img > 0:
                        pairs.append((da, db))
                    head = (a.domain.head(da), b.domain.head(db))
                    if head not in seen:
                        seen.add(head)
                        stack.append(head)
    vertices = sorted(seen)
    vid = {p: i for i, p in enumerate(vertices)}
    pairs.sort(key=lambda p: (abs(p[0]), abs(p[1])))
    eid: dict[tuple[int, int], int] = {}
    for ref, (da, db) in enumerate(pairs, start=1):
        eid[(da, db)] = ref
        eid[(-da, -db)] = -ref
    edges = [(vid[(a.domain.tail(da), b.domain.tail(db))],
              vid[(a.domain.head(da), b.domain.head(db))]) for da, db in pairs]

    partners: dict[int, list[int]] = {}  # a-vertex -> its reached b-vertices
    for u, v in vertices:
        partners.setdefault(u, []).append(v)
    cyc_a = [a.rewritten_cycle(c) for c in range(a.domain.num_cells())]
    cyc_b = [b.rewritten_cycle(c) for c in range(b.domain.num_cells())]
    cells_b: dict[tuple[int, int], list[int]] = {}  # (target cell, tail) -> b-cells
    for cb, cyc in enumerate(cyc_b):
        cells_b.setdefault((b.cell_image[cb][0], b.domain.tail(cyc[0])), []).append(cb)
    cell_pairs = sorted(
        (ca, cb)
        for ca, cyc in enumerate(cyc_a)
        for v in partners.get(a.domain.tail(cyc[0]), ())
        for cb in cells_b.get((a.cell_image[ca][0], v), ())
    )
    cells = [tuple(eid[p] for p in zip(cyc_a[ca], cyc_b[cb])) for ca, cb in cell_pairs]
    prod = Complex2(len(vertices), edges, cells)
    return CombMap(prod, a.codomain, [a.vertex_image[u] for u, _ in vertices],
                   [a.image_of(da) for da, _ in pairs],
                   [(a.cell_image[ca][0], 0, False) for ca, _ in cell_pairs],
                   vid[base])


# --- canonical forms --------------------------------------------------------


def canonical_form(m: CombMap):
    """Canonical description of a connected 1-immersed based map, used to
    compare fold results for isomorphism regardless of fold order."""
    ok, _ = is_1_immersion(m)
    if not ok:
        raise MapError("canonical_form requires a 1-immersion")
    outs = m.out_edges()
    order = {m.basepoint: 0}
    queue = [m.basepoint]
    while queue:
        v = queue.pop(0)
        for _img, d in sorted(outs[v].items()):
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
