"""Sufficient-condition checkers for coherence and local quasiconvexity.

Every checker returns a Verdict.  Inapplicability (a hypothesis of the
criterion fails) is kept distinct from a failing inequality: these are
one-sided tests and a False verdict never means "incoherent".
"""

from __future__ import annotations

from itertools import islice

from .complexes import (
    INF,
    Complex2,
    check_small_cancellation,
    largest_metric_denominator,
    standard_complex,
)
from .records import Record
from .weights import (
    Weighting,
    edge_perimeters,
    packet_weight,
    shortest_subpath_reaching,
    subpath_perimeter,
)
from .words import (
    Presentation,
    Word,
    cyclically_conjugate,
    generator_occurrences,
    is_cyclically_reduced,
    period_exponent,
)


class CriterionError(ValueError):
    pass


class Verdict(Record):
    _fields = ("criterion", "holds", "conclusion", "applicable", "witnesses", "notes", "extras")

    def __init__(self, criterion: str, holds: bool, conclusion: str, applicable: bool = True,
                 witnesses: list[str] | None = None, notes: list[str] | None = None,
                 extras: dict | None = None):
        self.criterion = criterion
        self.holds = holds
        self.conclusion = conclusion  # coherent | locally-quasiconvex | both | none
        self.applicable = applicable
        self.witnesses = [] if witnesses is None else witnesses
        self.notes = [] if notes is None else notes
        self.extras = {} if extras is None else extras

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "holds": self.holds,
            "conclusion": self.conclusion,
            "witnesses": list(self.witnesses),
            "notes": list(self.notes),
        }


def _inapplicable(criterion: str, why: str) -> Verdict:
    return Verdict(criterion, False, "none", applicable=False, notes=[why])


def _worst_subpath(w: Weighting, c: int, reaches) -> tuple[int, int, int] | None:
    """(P(S), start, length) of the boundary subpath S of cell c of most
    perimeter among those of 1 <= length <= reaches[start] edges, with the
    least start and then the least length among equals; None when every
    reach is 0.  Perimeters never drop as a subpath grows, so at each start
    the worst is the shortest subpath with the perimeter of the longest
    (`shortest_subpath_reaching`)."""
    worst = None
    for start, reach in enumerate(reaches):
        if reach:
            total = subpath_perimeter(w, c, start, reach)
            if worst is None or total > worst[0]:
                worst = (total, start, max(1, shortest_subpath_reaching(w, c, start, total)))
    return worst


def check_one_relator_torsion(w: Weighting) -> Verdict:
    """One-relator torsion test on the weighted complex of w: P(S) <= n*Wt(R)
    for every boundary subpath shorter than the period.  The boundary is
    W^n, so the subpaths from start + |W| are those from start: the starts
    of one period suffice."""
    crit = "one-relator-torsion"
    x = w.complex
    if x.num_cells() != 1 or x.num_vertices != 1:
        return _inapplicable(crit, "needs a unique 2-cell and a unique 0-cell")
    p, n = x.periods[0]
    if n <= 1:
        return _inapplicable(crit, "relator is not a proper power (exponent 1)")
    bound = packet_weight(w, 0)
    worst = _worst_subpath(w, 0, [p - 1] * p)
    if worst is None:
        return Verdict(crit, True, "coherent",
                       notes=["period length 1: no subpath is shorter than the period"])
    total, start, length = worst
    holds = total <= bound
    witnesses = []
    if not holds:
        witnesses.append(
            f"subpath at position {start} of length {length} has perimeter"
            f" {total} > {bound}"
        )
    return Verdict(crit, holds, "coherent" if holds else "none",
                   witnesses=witnesses,
                   notes=[f"max P(S) = {total} vs n*Wt(R) = {bound}"])


def check_equalweights(W: Word, n: int) -> Verdict:
    """Unit-weighting bound for a one-relator presentation with relator W**n:
    coherent once n >= |W| - 1, locally quasiconvex once n >= 3|W|."""
    crit = "equalweights"
    if not is_cyclically_reduced(W) or not W.letters:
        raise CriterionError("W must be nonempty and cyclically reduced")
    coherent = n >= len(W) - 1
    lqc = n >= 3 * len(W)
    if lqc:
        conclusion = "both"
    elif coherent:
        conclusion = "coherent"
    else:
        conclusion = "none"
    return Verdict(crit, coherent, conclusion,
                   notes=[f"coherence bound n >= {len(W) - 1}",
                          f"local quasiconvexity bound n >= {3 * len(W)}"])


def check_min_generator(W: Word, n: int) -> Verdict:
    """Concentrated 0/1 weighting: coherent once n >= k where k is the least
    positive occurrence count of a generator in W."""
    crit = "min-generator"
    if not is_cyclically_reduced(W) or not W.letters:
        raise CriterionError("W must be nonempty and cyclically reduced")
    if n < 2:
        return _inapplicable(crit, "needs exponent n >= 2")
    counts: dict[int, int] = {}
    for ell in W.letters:
        counts[abs(ell)] = counts.get(abs(ell), 0) + 1
    k, gen = min((c, g) for g, c in counts.items())
    holds = n >= k
    verdict = Verdict(crit, holds, "coherent" if holds else "none",
                      notes=[f"generator #{gen} occurs {k} times; need n >= {k}"])
    ngen = max(abs(ell) for ell in W.letters)
    gens = tuple(f"g{i + 1}" for i in range(ngen))
    pres = Presentation(gens, (Word(W.letters * n),))
    x = standard_complex(pres)
    rows = [tuple(1 if abs(d) == gen else 0 for d in bdry) for bdry in x.cells]
    verdict.extras["weighting"] = Weighting(x, tuple(rows))
    verdict.extras["complex"] = x
    return verdict


_VARIANTS = {"C6T3": (6, 3, 3), "C4T4": (4, 4, 2)}


def check_sc_weight(w: Weighting, variant: str = "C4T4", strict: bool = False) -> Verdict:
    """Small-cancellation weight test on the weighted complex of w: over
    every subpath S of a cell boundary made of at most 3 (C6T3) or 2 (C4T4)
    pieces, require P(S) <= n*Wt(R), strictly for the quasiconvexity form."""
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise CriterionError(f"unknown variant {variant!r}")
    crit = f"sc-{variant.lower()}" + ("-strict" if strict else "")
    p_cond, q_cond, shell = _VARIANTS[variant]
    x = w.complex
    sc = check_small_cancellation(x, p_cond, q_cond)
    if not (sc.c_holds and sc.t_holds):
        return Verdict(crit, False, "none", applicable=False,
                       witnesses=list(sc.witnesses),
                       notes=[f"complex is not C({p_cond})-T({q_cond}) (T via link girth)"])
    # Piece covers grow with the length, so at each start the subpaths of at
    # most `shell` pieces are those up to the greedy reach of `shell` pieces:
    # the walk's reaches grow, so that is the greatest of its first `shell`.
    found = []  # per cell: (slack, cell, start, length, P(S)) of its worst subpath
    for c, bdry in enumerate(x.cells):
        reaches = [max(islice(x.pieces.reaches(c, start), shell), default=0)
                   for start in range(len(bdry))]
        if (cell_worst := _worst_subpath(w, c, reaches)) is not None:
            p_s, start, length = cell_worst
            found.append((packet_weight(w, c) - p_s, c, start, length, p_s))
    if not found:
        return Verdict(crit, True, "both" if strict else "coherent",
                       notes=["no piece-bounded subpaths (no pieces)"])
    slack, c, start, length, p_s = min(found)
    bound = p_s + slack
    holds = slack > 0 if strict else slack >= 0
    conclusion = ("both" if strict else "coherent") if holds else "none"
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


def check_few_occurrences(p: Presentation, x: Complex2) -> Verdict:
    """Metric small-cancellation occurrence test: with C'(1/n) and every
    generator occurring at most n/3 times, coherent and locally quasiconvex.
    The pieces are read from x, which must be the standard complex of p."""
    if (x.num_vertices != 1 or x.num_edges() != len(p.generators)
            or [tuple(b) for b in x.cells] != [tuple(r.letters) for r in p.relators]):
        raise CriterionError("x is not the standard complex of p")
    crit = "few-occurrences"
    n_max = largest_metric_denominator(x)
    occ = generator_occurrences(p)
    worst_gen, worst = None, -1
    for g, c in occ.items():
        if c > worst:
            worst_gen, worst = g, c
    if n_max == INF:
        holds = True
        notes = ["no pieces: C'(1/n) holds for every n"]
    else:
        holds = 3 * worst <= n_max
        notes = [f"largest n with C'(1/n): {int(n_max)}"]
    witnesses = []
    if not holds:
        witnesses.append(
            f"generator {worst_gen!r} occurs {worst} times > {int(n_max)}/3"
        )
    verdict = Verdict(crit, holds, "both" if holds else "none",
                      witnesses=witnesses, notes=notes)
    verdict.extras["n_max"] = n_max
    return verdict


def power_theorem(words: list[Word], exponents: list[int] | None = None) -> tuple[int, Verdict]:
    """Exponent threshold N = ceil(6 * |Wmax| / |Wmin| * sum |Wi|): raising
    each word to a power >= N gives a coherent group, > N locally quasiconvex."""
    crit = "powers"
    if not words:
        raise CriterionError("need at least one word")
    for u in words:
        if not u.letters or not is_cyclically_reduced(u):
            raise CriterionError("words must be nonempty and cyclically reduced")
        if period_exponent(u)[1] > 1:
            raise CriterionError(f"word {u.letters} is a proper power")
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            if cyclically_conjugate(u, v):
                raise CriterionError("words are cyclically conjugate (up to inversion)")
    lengths = [len(u) for u in words]
    n_bound = -(-6 * max(lengths) * sum(lengths) // min(lengths))
    notes = [f"threshold N = {n_bound}"]
    if exponents is None:
        return n_bound, Verdict(crit, False, "none", notes=notes + ["no exponents supplied"])
    if len(exponents) != len(words):
        raise CriterionError("one exponent per word required")
    coherent = all(n >= n_bound for n in exponents)
    lqc = all(n > n_bound for n in exponents)
    conclusion = "both" if lqc else ("coherent" if coherent else "none")
    witnesses = [] if coherent else [
        f"exponent {n} < N = {n_bound}" for n in exponents if n < n_bound
    ]
    return n_bound, Verdict(crit, coherent, conclusion, witnesses=witnesses, notes=notes)


def magnus_weighting(x: Complex2, subgraph_edges: set[int]) -> tuple[Weighting | None, Verdict]:
    """Weight 0 on every side over the subgraph's edges, 1 elsewhere.

    Fails (free-factor case) when some 2-cell uses subgraph generators only.
    """
    crit = "magnus-weighting"
    if x.num_vertices != 1:
        return None, _inapplicable(crit, "needs a one-vertex complex")
    rows = [tuple(0 if abs(d) - 1 in subgraph_edges else 1 for d in bdry)
            for bdry in x.cells]
    zero_cells = [c for c, row in enumerate(rows) if sum(row) == 0]
    if zero_cells:
        return None, Verdict(
            crit, False, "none",
            witnesses=[f"cell {c} uses subgraph generators only" for c in zero_cells],
            notes=["subgraph generators span a free factor; weighting invalid"],
        )
    w = Weighting(x, tuple(rows))
    per = edge_perimeters(w)
    assert all(per[e] == 0 for e in subgraph_edges)
    return w, Verdict(crit, True, "none",
                      notes=["subgraph has perimeter 0; every cell weight positive"])


def _verdicts(w: Weighting, grade: str):
    """The verdicts that may certify a grade on w, in the order tried."""
    if grade == "weak":
        yield check_one_relator_torsion(w)
    if grade != "strict":
        for variant in ("C4T4", "C6T3"):
            yield check_sc_weight(w, variant, strict=grade == "sc-strict")
        return
    yield find_certificate(w, "sc-strict")
    x = w.complex
    if x.num_vertices == 1 and all(v == 1 for row in w.side_weights for v in row):
        gens = tuple(f"g{i + 1}" for i in range(x.num_edges()))
        pres = Presentation(gens, tuple(Word(b) for b in x.cells))
        yield check_few_occurrences(pres, x)


def find_certificate(w: Weighting, grade: str = "strict") -> Verdict | None:
    """First holding verdict that certifies the engine's answers on the
    weighted complex of w, or None.

    grade "sc-strict": a strict small-cancellation weight verdict, C4T4 then
    C6T3; grade "strict": quasiconvexity-grade, the "sc-strict" verdict or
    else, on a one-vertex unit weighting, few-occurrences; grade "weak":
    coherence-grade, enough for membership answers, one-relator torsion and
    then the weak small-cancellation weight verdicts.  The verdict is
    computed once per weighting and grade and shared by every caller, who
    must not mutate it.
    """
    if grade not in ("strict", "weak", "sc-strict"):
        raise CriterionError("grade must be 'strict', 'weak' or 'sc-strict'")
    if grade not in w._certificates:  # None is kept too: no second search
        w._certificates[grade] = next((v for v in _verdicts(w, grade) if v and v.holds), None)
    return w._certificates[grade]
