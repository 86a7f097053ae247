"""Decision procedures built on the reduction engine: subgroup presentations,
membership, and finitely generated intersections via the based components
of fiber products.  Each subgroup lives on one `maps.Domain`, built from
its words (`Domain.bouquet`) and changed in place from then on; a map is
built from it only to be read, and the fiber product is read off the
domains themselves.

The four decision procedures run with CPython's cyclic garbage collector
paused (`_collector_paused`).  Their domains allocate many small containers
(stars, end lists, edge tuples, side sets), which set off collector passes
that find nothing: the engine builds no reference cycles, so what it
allocates is freed by reference counting as it dies.  The caller's collector
state is restored on return; cycles that another thread makes during a call
wait for the collector's next pass."""

from __future__ import annotations

from functools import wraps

from .complexes import Complex2
from .criteria import CriterionError, Verdict, find_certificate, magnus_weighting
from .engine import EngineError, ReductionTrace, extract_presentation, reduce_domain
from .maps import CombMap, Domain, based_fiber_product
from .records import Record
from .weights import Weighting
from .words import Presentation, Word, free_reduce


class MissingCertificateError(ValueError):
    pass


def _collector_paused(decide):
    """Run `decide` with the cyclic garbage collector disabled, and enable it
    again on the way out, by return or by raise, if it was enabled on entry.

    Safe because the engine's structures (domains, maps, traces, union-find
    and piece tables) hold no reference cycles: each is freed by reference
    counting as it dies, so a collector pass during a call would find
    nothing, as `tests/test_subgroups.py` checks over the answer corpus.
    The switch is process-wide: cycles another thread makes during a call
    are collected only when the collector runs again."""
    @wraps(decide)
    def paused(*args, **kwargs):
        import gc  # only here, so `import perifold` does not import it

        if not gc.isenabled():
            return decide(*args, **kwargs)
        gc.disable()
        try:
            return decide(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class SubgroupResult(Record):
    _fields = ("presentation", "trace", "certificate", "heuristic", "final_map", "exhausted")

    def __init__(self, presentation: Presentation, trace: ReductionTrace,
                 certificate: Verdict | None, heuristic: bool, final_map: CombMap,
                 exhausted: bool = False):
        self.presentation = presentation
        self.trace = trace
        self.certificate = certificate
        self.heuristic = heuristic
        self.final_map = final_map
        self.exhausted = exhausted  # the step limit cut the reduction short


def _certified(x: Complex2, w: Weighting, grade: str, force: bool,
               operation: str) -> tuple[Verdict | None, bool]:
    """The certificate of `find_certificate` of the grade that gates an
    operation, and whether the run is heuristic (forced without one).  The
    weighting must be one of x, whatever the grade, forced or not.  In
    `subgroup_presentation`, `member` and `intersect` this refusal is the
    only use of x: their domains read the complex off the weighting."""
    if x != w.complex:
        raise CriterionError("weighting belongs to a different complex")
    cert = find_certificate(w, grade)
    if cert is None and not force:
        missing = ("needs a strict small-cancellation weight certificate"
                   if grade == "sc-strict"
                   else f"no {grade}-grade certificate holds for this weighted complex")
        raise MissingCertificateError(
            f"{operation}: {missing} (pass force=True for a heuristic run)")
    return cert, cert is None


def _clean_words(words) -> list[Word]:
    return [r for r in map(free_reduce, words) if r.letters]


@_collector_paused
def subgroup_presentation(x: Complex2, w: Weighting, gens: list[Word],
                          force: bool = False,
                          step_limit: int | None = None) -> SubgroupResult:
    """Reduce the bouquet of the generators and contract a spanning tree.

    With a step limit that cuts the reduction short, `exhausted` is set and
    the presentation is read off the partially reduced complex."""
    cert, heuristic = _certified(x, w, "strict", force, "subgroup_presentation")
    dom = Domain.bouquet(w, _clean_words(gens))
    trace, exhausted = reduce_domain(dom, "strict", step_limit)
    m = dom.to_map()
    return SubgroupResult(extract_presentation(m), trace, cert, heuristic, m, exhausted)


def member(x: Complex2, w: Weighting, gens: list[Word], u: Word,
           force: bool = False) -> bool:
    """Generalized word problem: reduce the wedge of the generators with an
    open whisker arc carrying u, and answer whether the whisker's endpoints
    are identified in the reduced domain.  `True` is always sound: every
    step only folds or attaches packets.  `False` rests on the gate's
    certificate, and the gate asks for a weak one while the engine runs in
    strict mode: on the torus with unit weights it answers `False` for 16
    of the 312 reduced words of length 8 that are trivial in the group
    (ROADMAP item 1)."""
    return member_with_trace(x, w, gens, u, force)[0]


@_collector_paused
def member_with_trace(x: Complex2, w: Weighting, gens: list[Word], u: Word,
                      force: bool = False, step_limit: int | None = None
                      ) -> tuple[bool | None, ReductionTrace]:
    """`member`'s answer and the trace of its reduction; a word that is
    trivial in the free group is answered without one (an empty trace),
    once the bouquet has checked the generators.

    Every step only folds or attaches packets, so whisker endpoints
    identified within a step limit answer True however the run ends.  A
    run the limit cuts short without that identification answers None:
    undecided."""
    _certified(x, w, "weak", force, "member")
    if step_limit is not None and step_limit < 0:  # the shortcut below runs no reduction
        raise EngineError(f"step_limit must be at least 0, not {step_limit}")
    u = free_reduce(u)
    dom = Domain.bouquet(w, _clean_words(gens), whisker=u)  # refuses unknown generators
    if not u.letters:
        return True, ReductionTrace(0, 0)
    tip = len(dom.parent) - 1  # the whisker's end, the last vertex
    trace, exhausted = reduce_domain(dom, "strict", step_limit)
    if dom.find(tip) == 0:  # the basepoint, vertex 0, is always a root
        return True, trace
    return (None if exhausted else False), trace


@_collector_paused
def intersect(x: Complex2, w: Weighting, gens_h: list[Word], gens_k: list[Word],
              force: bool = False, step_limit: int | None = None) -> SubgroupResult:
    """Intersection of two finitely generated subgroups.

    Reduce each bouquet on its live domain, attach a copy of every incident
    2-cell at each vertex (`Domain.augment`) and reduce the same domain
    again; the based component of the fiber product of the two domains,
    read off them by a search from the basepoint pair
    (`based_fiber_product`), presents the intersection.  The trace lists
    the steps of all four reductions, in this order: H's bouquet, H
    augmented, K's bouquet, K augmented; it starts at H's bouquet.

    Each of the four reductions runs within `step_limit`; when any of them
    is cut short, `exhausted` is set and the presentation is read off the
    partially reduced complexes.
    """
    cert, heuristic = _certified(x, w, "sc-strict", force, "intersect")
    runs, domains = [], []
    for gens in (gens_h, gens_k):
        dom = Domain.bouquet(w, _clean_words(gens))
        runs.append(reduce_domain(dom, "strict", step_limit))
        dom.augment()
        runs.append(reduce_domain(dom, "strict", step_limit))
        domains.append(dom)
    based = based_fiber_product(*domains)
    trace = ReductionTrace(runs[0][0].initial_perimeter, runs[0][0].initial_edges,
                           [step for run, _exhausted in runs for step in run.steps])
    return SubgroupResult(extract_presentation(based), trace, cert, heuristic, based,
                          any(exhausted for _run, exhausted in runs))


@_collector_paused
def magnus_intersect(x: Complex2, subgraph_edges: set[int], gens_h: list[Word],
                     force: bool = False) -> SubgroupResult:
    """Intersection with the subgroup of a zero-perimeter subgraph.

    The fiber product of the reduced subgroup complex with the subgraph
    inclusion is the preimage of the subgraph; its based component, read off
    the reduced live domain and the inclusion's domain by a search from the
    basepoint pair (`based_fiber_product`), presents the intersection.
    """
    weighting, verdict = magnus_weighting(x, subgraph_edges)
    if weighting is None:
        raise ValueError(
            "magnus_intersect: weighting invalid (free-factor case): "
            + "; ".join(verdict.witnesses or verdict.notes)
        )
    cert, heuristic = _certified(x, weighting, "weak", force, "magnus_intersect")
    dom = Domain.bouquet(weighting, _clean_words(gens_h))
    trace, _exhausted = reduce_domain(dom, "strict")
    inclusion = Domain.bouquet(weighting, [Word((e + 1,)) for e in sorted(subgraph_edges)])
    based = based_fiber_product(dom, inclusion)
    return SubgroupResult(extract_presentation(based), trace, cert, heuristic, based)
