"""The perimeter-reduction engine: candidate enumeration, attachment-site
search, packet attachment with exact bookkeeping, the fold/attach loop, and
presentation extraction.

The loop alternates folding to a 1-immersion, packing repair, and packet
attachment along qualifying boundary subpaths.  In strict mode the
lexicographic pair (perimeter, edge count) drops at every fold and every
attachment, so the loop terminates; weak mode may run forever and therefore
requires a step limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Complex2
from .maps import (
    CombMap,
    PathInY,
    find_fold,
    fold_to_immersion,
    identify_vertices,
    missing_mates,
    packet_mates,
    present_cycles,
    repair_packing,
    with_arc,
    with_cells,
)
from .weights import (
    Weighting,
    cell_weight,
    edge_perimeter,
    map_perimeter,
    path_perimeter,
    present_sides,
    subpath_perimeter,
)
from .words import Presentation, Word, cyclic_reduce, free_reduce


class EngineError(ValueError):
    pass


class StaleSiteError(EngineError):
    pass


@dataclass(frozen=True)
class CandidateQ:
    cell: int
    start: int
    length: int
    strict: bool  # P(S) < n*Wt(R); weak candidates satisfy <= only


def enumerate_candidates(x: Complex2, w: Weighting, mode: str = "strict") -> list[CandidateQ]:
    """All boundary subpaths Q whose complement S satisfies P(S) < n*Wt(R)
    (strict) or <= (weak).  Starts are reduced modulo the period length:
    shifting a candidate by a period gives the same subpath of the boundary
    up to its rotational symmetry."""
    if mode not in ("strict", "weak"):
        raise EngineError("mode must be 'strict' or 'weak'")
    out: list[CandidateQ] = []
    for c, bdry in enumerate(x.cells):
        m = len(bdry)
        p, n = x.periods[c]
        nwt = n * cell_weight(w, c)
        for start in range(p):
            for length in range(1, m + 1):
                p_s = subpath_perimeter(w, c, start + length, m - length)
                strict = p_s < nwt
                if strict or (mode == "weak" and p_s == nwt):
                    out.append(CandidateQ(c, start, length, strict))
    return out


@dataclass
class AttachmentSite:
    candidate: CandidateQ
    path: PathInY  # the lift of Q into the domain
    complete: bool


@dataclass
class TraceStep:
    kind: str  # fold | attach-complete | attach-incomplete | repair | remove-redundant
    perimeter: int
    edges: int
    vertices: int = 0
    cells: int = 0
    detail: dict = field(default_factory=dict)

    def euler_characteristic(self) -> int:
        return self.vertices - self.edges + self.cells


@dataclass
class ReductionTrace:
    initial_perimeter: int
    initial_edges: int
    steps: list[TraceStep] = field(default_factory=list)

    def to_lines(self) -> list[str]:
        return [
            f"step={k} kind={s.kind} P={s.perimeter} edges={s.edges}"
            for k, s in enumerate(self.steps, start=1)
        ]


def _grow_backward(ring: tuple[int, ...], outs, verts: list[int], edges: list[int]) -> int:
    """Extend a lift of `ring` (∂R read from the lift's start) backward in
    both ∂R and Y until no extension exists or it covers ∂R; returns how
    many letters it grew."""
    grown = 0
    while len(edges) < len(ring):
        back = outs[verts[0]].get(-ring[-1 - grown])
        if back is None:
            break
        edges.insert(0, -back[0])
        verts.insert(0, back[1])
        grown += 1
    return grown


def scan_order(w: Weighting, mode: str = "strict") -> tuple[CandidateQ, ...]:
    """The candidates `find_attachment` tries, in its scan order: the strict
    ones longest first in strict mode, all shortest first in weak mode.
    Built once per (weighting, mode) and kept on the weighting."""
    order = w._scan_order.get(mode)
    if order is None:
        candidates = enumerate_candidates(w.complex, w, mode)
        if mode == "strict":
            order = sorted((c for c in candidates if c.strict),
                           key=lambda c: (-c.length, c.cell, c.start))
        else:
            order = sorted(candidates, key=lambda c: (c.length, c.cell, c.start))
        order = w._scan_order[mode] = tuple(order)
    return order


def find_attachment(m: CombMap, w: Weighting, mode: str = "strict") -> AttachmentSite | None:
    """Deterministic scan for an attachment site.

    Strict mode scans longest candidates first and grows every lift to a
    maximal site, which favours complete attachments.  Weak mode scans
    shortest first and keeps only lifts that are already maximal at the
    candidate length; longer sites are reached at their own length, so the
    weak engine reproduces the nonterminating square-ladder behaviour.

    A candidate is tried, in vertex order, only at the vertices where its
    first letter lifts.  The lift from a vertex, its maximal site and
    whether that site may be attached do not depend on the candidate's
    length, so each (cell, start, vertex) is walked and settled once per
    call and reused by every other length.  A blocked circle is settled
    for every (start, vertex) around it at once: the lift from each of
    them is the same circle.
    """
    x = m.codomain
    dom = m.domain
    # per vertex: image letter -> (domain end over it, its head)
    outs: list[dict[int, tuple[int, int]]] = [{} for _ in range(dom.num_vertices)]
    for e, (src, tgt) in enumerate(dom.edges):
        img = m.edge_image[e]
        outs[src][img] = (e + 1, tgt)
        outs[tgt][-img] = (-(e + 1), src)
    if sum(map(len, outs)) < 2 * dom.num_edges():
        # two ends at some vertex share an image
        raise EngineError("find_attachment requires a 1-immersion")
    lifts_from: dict[int, list[int]] = {}  # image letter -> vertices it leaves, ascending
    for v, out in enumerate(outs):
        for img in out:
            lifts_from.setdefault(img, []).append(v)
    cycles = None  # present_cycles(m), built for the first closed complete site

    def settle(cell: int, start: int, ring: tuple[int, ...], verts: list[int],
               edges: list[int]) -> AttachmentSite | None:
        # the maximal site through a forward lift, or None when it is blocked
        # (or, in strict mode, not strict)
        nonlocal cycles
        verts, edges = list(verts), list(edges)
        mlen = len(ring)
        start = (start - _grow_backward(ring, outs, verts, edges)) % mlen
        complete = len(edges) == mlen
        if complete and verts[0] == verts[-1]:
            # blocked only when the whole packet already lies over the circle
            if cycles is None:
                cycles = present_cycles(m)
            cyc = edges[mlen - start:] + edges[:mlen - start]
            have = cycles.get(cell, set())
            if all(mate in have for mate in packet_mates(x, cell, cyc)):
                # the lift from each (start, vertex) around the circle is the
                # circle itself, blocked too: record a full-length walk and
                # no site for each
                p = x.periods[cell][0]
                for k in range(mlen):
                    _ring, walks, sites = lifts_at(cell, (start + k) % p)
                    walks[verts[k]] = verts, edges
                    sites[verts[k]] = None
                return None
        grown = _candidate_at(x, w, cell, start, len(edges))
        if mode == "strict" and not grown.strict:
            return None
        return AttachmentSite(grown, PathInY(dom, tuple(verts), tuple(edges)), complete)

    # (cell, start) -> (∂R read from start, forward lift per vertex, its site)
    starts: dict[tuple[int, int], tuple[tuple[int, ...], dict, dict]] = {}

    def lifts_at(cell: int, start: int) -> tuple[tuple[int, ...], dict, dict]:
        lifts = starts.get((cell, start))
        if lifts is None:
            bdry = x.cells[cell]
            lifts = starts[cell, start] = (bdry[start:] + bdry[:start], {}, {})
        return lifts

    for cand in scan_order(w, mode):
        ring, walks, sites = lifts_at(cand.cell, cand.start)
        for v in lifts_from.get(ring[0], ()):
            walk = walks.get(v)
            if walk is None:
                # lift forward as far as ∂R goes
                verts, edges = [v], []
                out = outs[v]
                for letter in ring:
                    step = out.get(letter)
                    if step is None:
                        break
                    edges.append(step[0])
                    verts.append(step[1])
                    out = outs[step[1]]
                walk = walks[v] = (verts, edges)
            if len(walk[1]) < cand.length:
                continue
            if v in sites:
                site = sites[v]
            else:
                site = sites[v] = settle(cand.cell, cand.start, ring, *walk)
            if site is None or (mode == "weak" and len(site.path.edges) != cand.length):
                continue  # a weak site is scanned at its maximal length
            return site
    return None


def _candidate_at(x: Complex2, w: Weighting, cell: int, start: int, length: int) -> CandidateQ:
    mlen = x.boundary_length(cell)
    p_s = subpath_perimeter(w, cell, start + length, mlen - length)
    _p, n = x.periods[cell]
    return CandidateQ(cell, start % mlen, length, p_s < n * cell_weight(w, cell))


@dataclass
class AttachResult:
    map: CombMap
    vertex_map: list[int]
    cells_added: int
    complete: bool
    identified_endpoints: bool


def attach_packet(m: CombMap, w: Weighting, site: AttachmentSite) -> AttachResult:
    """Glue the packet of the site's cell to the domain along the lifted Q.

    Complete sites first identify the endpoints of Q; incomplete sites add
    the complement as a fresh arc.  All packet cells missing over the
    resulting circle are attached.
    """
    if site.path.complex is not m.domain:
        raise StaleSiteError("attachment site refers to an outdated domain")
    x = m.codomain
    cell, start, length = site.candidate.cell, site.candidate.start, site.candidate.length
    bdry = x.cells[cell]
    mlen = len(bdry)
    tail, head = site.path.vertices[0], site.path.vertices[-1]
    around = list(site.path.edges)  # the circle's refs from position start on
    if site.complete:
        m, vmap = identify_vertices(m, tail, head)
    else:
        vmap = list(range(m.domain.num_vertices))
        m, arc = with_arc(m, head, tail, [bdry[(start + k) % mlen] for k in range(length, mlen)])
        around += arc
    cycle = [around[(q - start) % mlen] for q in range(mlen)]
    mates = missing_mates(x, cell, cycle, present_cycles(m).get(cell, set()))
    if not mates:
        raise StaleSiteError("packet already present along the site")
    return AttachResult(with_cells(m, [(cell, mate) for mate in mates]), vmap, len(mates),
                        site.complete, site.complete and tail != head)


@dataclass
class ReduceResult:
    map: CombMap
    trace: ReductionTrace
    vertex_tracking: list[int]  # original domain vertex -> final vertex
    exhausted: bool = False


def reduce_map(m: CombMap, w: Weighting, mode: str = "strict",
               step_limit: int | None = None, verify: bool = False) -> ReduceResult:
    """Fold/repair/attach until no fold and no qualifying site exists.

    Each fold phase is one `fold_to_immersion` pass; the perimeter follows
    each fold by its local change, so the double sum is taken only at the
    start, after repairs and after complete attachments (and, with
    `verify`, after every phase as a check).

    Weak mode requires a step limit (weak attachments need not terminate);
    hitting the limit sets `exhausted` instead of raising so the partial
    trace stays observable.
    """
    if mode not in ("strict", "weak"):
        raise EngineError("mode must be 'strict' or 'weak'")
    if mode == "weak" and step_limit is None:
        raise EngineError("weak mode requires a step_limit")
    tracking = list(range(m.domain.num_vertices))
    perimeter = map_perimeter(w, m)
    trace = ReductionTrace(perimeter, m.domain.num_edges())
    pending = False  # the last fold phase was cut short with a fold left

    def out_of_steps() -> bool:
        return step_limit is not None and len(trace.steps) >= step_limit

    def log(kind: str, p: int, detail: dict | None = None) -> None:
        trace.steps.append(TraceStep(kind, p, m.domain.num_edges(),
                                     m.domain.num_vertices, m.domain.num_cells(),
                                     detail or {}))

    def fold_and_pack() -> None:
        nonlocal m, perimeter, tracking, pending
        dom = m.domain
        edges, vertices = dom.num_edges(), dom.num_vertices
        present: list[set[tuple[int, int]]] = []  # sides at each edge of dom

        def on_fold(d1: int, d2: int, merged: bool) -> None:
            # only the sides at the two identified edges change: the kept
            # edge carries both sets, so a side present at both stops being
            # counted twice
            nonlocal perimeter, edges, vertices
            keep, drop = abs(d1) - 1, abs(d2) - 1
            if not present:
                present.extend(present_sides(m))
            shared = sum(w.weight(*s) for s in present[keep] & present[drop])
            present[keep] |= present[drop]
            perimeter -= edge_perimeter(w, abs(m.edge_image[keep]) - 1) - shared
            edges -= 1
            vertices -= merged
            trace.steps.append(TraceStep("fold", perimeter, edges, vertices,
                                         dom.num_cells(), {}))

        limit = None if step_limit is None else max(0, step_limit - len(trace.steps))
        res = fold_to_immersion(m, limit, on_fold)
        if res.folds:
            tracking = [res.vertex_map[v] for v in tracking]
        m, pending = res.map, res.pending
        if verify:
            if perimeter != map_perimeter(w, m):
                raise EngineError("fold bookkeeping mismatch")
            if not pending and find_fold(m) is not None:
                raise EngineError("fold phase did not end in a 1-immersion")
        if res.removed_cells:
            log("remove-redundant", perimeter, {"removed": res.removed_cells})
        m, added = repair_packing(m)
        if added:
            perimeter = map_perimeter(w, m)
            log("repair", perimeter, {"added": added})

    fold_and_pack()
    while not out_of_steps():
        site = find_attachment(m, w, mode)
        if site is None:
            break
        p_packet, p_q = _site_perimeters(w, site)
        res = attach_packet(m, w, site)
        m = res.map
        tracking = [res.vertex_map[v] for v in tracking]
        if res.complete:
            new_perimeter = map_perimeter(w, m)
            delta = new_perimeter - perimeter
            wt = cell_weight(w, site.candidate.cell)
            if delta > -wt:
                raise EngineError("complete attachment failed to reduce perimeter by Wt(R)")
            perimeter = new_perimeter
            log("attach-complete", perimeter,
                {"cell": site.candidate.cell, "delta": delta})
        else:
            perimeter = perimeter + p_packet - p_q
            if verify and perimeter != map_perimeter(w, m):
                raise EngineError("incomplete attachment bookkeeping mismatch")
            log("attach-incomplete", perimeter,
                {"cell": site.candidate.cell, "delta": p_packet - p_q})
        fold_and_pack()
    exhausted = out_of_steps() and (pending or find_attachment(m, w, mode) is not None)
    return ReduceResult(m, trace, tracking, exhausted)


def _site_perimeters(w: Weighting, site: AttachmentSite) -> tuple[int, int]:
    """(P(packet), P(Q)) of a site, from codomain data alone."""
    x = w.complex
    cell, start, length = site.candidate.cell, site.candidate.start, site.candidate.length
    _p, n = x.periods[cell]
    p_packet = subpath_perimeter(w, cell, 0, x.boundary_length(cell)) - n * cell_weight(w, cell)
    p_q = subpath_perimeter(w, cell, start, length)
    return p_packet, p_q


# --- presentation extraction -------------------------------------------------


def extract_presentation(m: CombMap) -> Presentation:
    """Contract a breadth-first spanning tree; non-tree edges generate and the
    2-cell boundaries, rewritten over them, relate."""
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
        word = cyclic_reduce(free_reduce(Word(tuple(letters))))
        if word.letters:
            relators.append(word)
    return Presentation(names, tuple(relators))


def relator_bound(x: Complex2, w: Weighting, words: list[Word]) -> int:
    """Sum of the word perimeters; bounds the relator count of the subgroup
    they generate when every 2-cell is attached along a simple cycle
    (reported, not enforced)."""
    return sum(path_perimeter(w, word) for word in words)


def euler_perimeter(m: CombMap, w: Weighting) -> int:
    return m.domain.euler_characteristic() + map_perimeter(w, m)
