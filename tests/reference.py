"""The all-pairs fiber product and its restriction to a component, kept as
the reference that `perifold.maps.based_fiber_product` is tested against.

`restrict_to_component(fiber_product(a, b).to_codomain, based_vertex)` is
the based component computed the long way: every vertex pair and every edge
pair first, then everything the basepoint pair does not reach thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass

from perifold.complexes import Complex2
from perifold.maps import CombMap, MapError


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
