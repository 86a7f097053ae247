"""Decision procedures built on the reduction engine: subgroup presentations,
membership, and finitely generated intersections via the based components
of fiber products."""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex2
from .criteria import (
    Verdict,
    find_certificate,
    magnus_weighting,
    sc_certificate,
)
from .engine import ReductionTrace, extract_presentation, reduce_map
from .maps import CombMap, append_arc, based_fiber_product, bouquet_map, whisker_tip
from .weights import Weighting
from .words import Presentation, Word, free_reduce


class MissingCertificateError(ValueError):
    pass


@dataclass
class SubgroupResult:
    presentation: Presentation
    trace: ReductionTrace
    certificate: Verdict | None
    heuristic: bool
    final_map: CombMap
    exhausted: bool = False  # the step limit cut the reduction short


def _certified(x: Complex2, w: Weighting, grade: str, force: bool,
               operation: str) -> tuple[Verdict | None, bool]:
    """The certificate that gates an operation, and whether the run is
    heuristic (forced without one).  Grade "strict" or "weak" takes the
    first certificate of `find_certificate`; grade "sc-strict" only a
    strict small-cancellation weight certificate (`sc_certificate`)."""
    if grade == "sc-strict":
        cert = sc_certificate(w, strict=True)
        missing = "needs a strict small-cancellation weight certificate"
    else:
        cert = find_certificate(x, w, grade)
        missing = f"no {grade}-grade certificate holds for this weighted complex"
    if cert is None and not force:
        raise MissingCertificateError(
            f"{operation}: {missing} (pass force=True for a heuristic run)")
    return cert, cert is None


def _clean_words(words) -> list[Word]:
    return [r for r in map(free_reduce, words) if r.letters]


def subgroup_presentation(x: Complex2, w: Weighting, gens: list[Word],
                          force: bool = False,
                          step_limit: int | None = None) -> SubgroupResult:
    """Reduce the bouquet of the generators and contract a spanning tree.

    With a step limit that cuts the reduction short, `exhausted` is set and
    the presentation is read off the partially reduced complex."""
    cert, heuristic = _certified(x, w, "strict", force, "subgroup_presentation")
    m = bouquet_map(x, _clean_words(gens))
    res = reduce_map(m, w, "strict", step_limit)
    return SubgroupResult(extract_presentation(res.map), res.trace, cert,
                          heuristic, res.map, res.exhausted)


def member(x: Complex2, w: Weighting, gens: list[Word], u: Word,
           force: bool = False) -> bool:
    """Generalized word problem: reduce the wedge of the generators with an
    open whisker arc carrying u; u lies in the subgroup iff the whisker's
    endpoints are identified in the final complex."""
    return member_with_trace(x, w, gens, u, force)[0]


def member_with_trace(x: Complex2, w: Weighting, gens: list[Word], u: Word,
                      force: bool = False, step_limit: int | None = None
                      ) -> tuple[bool | None, ReductionTrace]:
    """`member`'s answer and the trace of its reduction; a word that is
    trivial in the free group is answered without one (an empty trace).

    Every step only folds or attaches packets, so whisker endpoints
    identified within a step limit answer True however the run ends.  A
    run the limit cuts short without that identification answers None:
    undecided."""
    _certified(x, w, "weak", force, "member")
    u = free_reduce(u)
    if not u.letters:
        return True, ReductionTrace(0, 0)
    m = bouquet_map(x, _clean_words(gens), whisker=u)
    tip = whisker_tip(m)
    res = reduce_map(m, w, "strict", step_limit)
    if res.vertex_tracking[m.basepoint] == res.vertex_tracking[tip]:
        return True, res.trace
    return (None if res.exhausted else False), res.trace


def _augment_with_cells(m: CombMap) -> CombMap:
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
    edges = list(m.domain.edges)
    cells = list(m.domain.cells)
    vertex_image = list(m.vertex_image)
    edge_image = list(m.edge_image)
    cell_image = list(m.cell_image)
    for v in range(m.domain.num_vertices):
        for r, j in corners.get(m.vertex_image[v], []):
            bdry = x.cells[r]
            cells.append(tuple(append_arc(x, edges, edge_image, vertex_image, v, v,
                                          bdry[j:] + bdry[:j])))
            cell_image.append((r, j, False))
    dom = Complex2(len(vertex_image), edges, cells)
    return CombMap(dom, x, vertex_image, edge_image, cell_image, m.basepoint)


def intersect(x: Complex2, w: Weighting, gens_h: list[Word], gens_k: list[Word],
              force: bool = False, step_limit: int | None = None) -> SubgroupResult:
    """Intersection of two finitely generated subgroups.

    Reduce both bouquets, attach a copy of every incident 2-cell at each
    vertex and reduce again; the based component of the fiber product of the
    two results, found by a search from the basepoint pair
    (`based_fiber_product`), presents the intersection.  The trace lists
    the steps of all four reductions, in this order: H's bouquet, H
    augmented, K's bouquet, K augmented; it starts at H's bouquet.

    Each of the four reductions runs within `step_limit`; when any of them
    is cut short, `exhausted` is set and the presentation is read off the
    partially reduced complexes.
    """
    cert, heuristic = _certified(x, w, "sc-strict", force, "intersect")
    runs = []
    for gens in (gens_h, gens_k):
        bouquet = reduce_map(bouquet_map(x, _clean_words(gens)), w, "strict", step_limit)
        runs += [bouquet, reduce_map(_augment_with_cells(bouquet.map), w, "strict", step_limit)]
    based = based_fiber_product(runs[1].map, runs[3].map)
    first = runs[0].trace
    trace = ReductionTrace(first.initial_perimeter, first.initial_edges,
                           [step for run in runs for step in run.trace.steps])
    return SubgroupResult(extract_presentation(based), trace, cert, heuristic, based,
                          any(run.exhausted for run in runs))


def magnus_intersect(x: Complex2, subgraph_edges: set[int], gens_h: list[Word],
                     force: bool = False) -> SubgroupResult:
    """Intersection with the subgroup of a zero-perimeter subgraph.

    The fiber product of the reduced subgroup complex with the subgraph
    inclusion is the preimage of the subgraph; its based component, found by
    a search from the basepoint pair (`based_fiber_product`), presents the
    intersection.
    """
    weighting, verdict = magnus_weighting(x, subgraph_edges)
    if weighting is None:
        raise ValueError(
            "magnus_intersect: weighting invalid (free-factor case): "
            + "; ".join(verdict.witnesses or verdict.notes)
        )
    cert, heuristic = _certified(x, weighting, "weak", force, "magnus_intersect")
    a = reduce_map(bouquet_map(x, _clean_words(gens_h)), weighting, "strict")
    kept = sorted(subgraph_edges)
    sub = Complex2(1, [(0, 0) for _ in kept], [])
    inclusion = CombMap(sub, x, [0], [e + 1 for e in kept], [], 0)
    based = based_fiber_product(a.map, inclusion)
    return SubgroupResult(extract_presentation(based), a.trace, cert,
                          heuristic, based)
