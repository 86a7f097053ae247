"""The four workloads: seeded inputs, the timed calls into
``perifold.subgroups`` and the checks of their answers.

A workload builds one *round*: a fixed list of operations made from the
seed.  A run repeats the round, so every run attempts whole rounds of the
same operations and the share of failed operations does not depend on the
run length.  The program receives only input-file text (parsed by
``perifold.cli.parse_input_file``) and words; the inputs come from this
file, never from ``perifold.experiments``, so a change to the program
cannot change the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracles
from oracles import AAB3_RELATOR, free_reduce, inverse

AAB9_RELATOR = (1, 1, 2) * 9

INPUT_TEXTS = {
    "aab9": "gens a b\nrel ( a a b )^9\nweights unit\n",
    "aab3": "gens a b\nrel ( a a b )^3\nweights unit\n",
    "torus": "gens a b\nrel a b a^-1 b^-1\nweights unit\n",
    "genus2": "gens a1 b1 a2 b2\nrel a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\nweights unit\n",
}

# input files each workload parses during set-up
INPUT_FILES = {
    "fold": ("aab9",),
    "attach": ("genus2",),
    "member": ("aab3", "torus"),
    "intersect": ("genus2",),
}

FOLD_LENGTH = 100  # total generator length L, split into L/5 generators
FOLD_ROUND = 100
ATTACH_CONJUGATES = 8
ATTACH_ROUND = 100
MEMBER_AAB_ROUND = 384
INTERSECT_PAIRS = 150  # two operations per pair: H∩K and K∩H
INTERSECT_GEN_LENGTH = (8, 10)

# [a^2, b^2], [a^2, b^-2] and a rotation of each: trivial in Z^2, answered
# false by `member` on the torus (strict engine behind a weak certificate)
TORUS_FAULT_WORDS = (
    (1, 1, 2, 2, -1, -1, -2, -2),
    (1, 1, -2, -2, -1, -1, 2, 2),
    (1, 2, 2, -1, -1, -2, -2, 1),
    (1, -2, -2, -1, -1, 2, 2, 1),
)


@dataclass
class Op:
    """One timed call.  `fault_class` marks the member torus queries, the
    only ones a known fault makes fail."""

    call: Callable[[], object]
    fault_class: bool = False


@dataclass
class Round:
    ops: list[Op]
    # round-one check: outputs (result or raised exception) -> ok per op
    check: Callable[[list], list[bool]]
    # digest compared across rounds: a repeated round must answer the same
    digest: Callable[[object], object]
    notes: list[str]


def random_reduced(rng: random.Random, ngens: int, length: int) -> tuple[int, ...]:
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice([s * g for g in range(1, ngens + 1) for s in (1, -1)])
        if not letters or x != -letters[-1]:
            letters.append(x)
    return tuple(letters)


def random_rotation(rng: random.Random, relator) -> tuple[int, ...]:
    base = tuple(relator) if rng.random() < 0.5 else inverse(relator)
    k = rng.randrange(len(base))
    return base[k:] + base[:k]


def _presentation_digest(res) -> object:
    if isinstance(res, BaseException):
        return ("raised", type(res).__name__)
    p = res.presentation
    return (p.generators, tuple(r.letters for r in p.relators))


def _bool_digest(res) -> object:
    if isinstance(res, BaseException):
        return ("raised", type(res).__name__)
    return res


def _invariants(res) -> tuple[int, tuple[int, ...]]:
    p = res.presentation
    return oracles.abelian_invariants(len(p.generators), [r.letters for r in p.relators])


# --- fold ---------------------------------------------------------------------


def _fold_ok(res, gens) -> bool:
    """Properties every strict reduction of a bouquet over (aab)^9 has."""
    if isinstance(res, BaseException):
        return False
    m = res.final_map
    dom = m.domain
    edges, labels = list(dom.edges), list(m.edge_image)
    if not oracles.is_immersion(edges, labels):
        return False
    if not all(oracles.lifts_closed(edges, labels, m.basepoint, free_reduce(g))
               for g in gens):
        return False
    cod, rows = [AAB9_RELATOR], [(1,) * len(AAB9_RELATOR)]
    tr = res.trace
    bouquet = [x for g in gens for x in g]
    if tr.initial_edges != len(bouquet):
        return False
    if tr.initial_perimeter != oracles.double_sum_perimeter(cod, rows, bouquet, [], []):
        return False
    pair = (tr.initial_perimeter, tr.initial_edges)
    for step in tr.steps:
        new = (step.perimeter, step.edges)
        working = step.kind == "fold" or step.kind.startswith("attach")
        if not (new < pair if working else new <= pair):
            return False
        pair = new
    final = oracles.double_sum_perimeter(cod, rows, labels, list(dom.cells), list(m.cell_image))
    if pair[0] != final:
        return False
    return len(res.presentation.generators) == len(edges) - dom.num_vertices + 1


def fold_round(rng: random.Random, pf, files) -> Round:
    f = files["aab9"]
    parts = FOLD_LENGTH // 5
    inputs = []
    for _ in range(FOLD_ROUND):
        cuts = sorted(rng.sample(range(1, FOLD_LENGTH), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [FOLD_LENGTH])]
        inputs.append([random_reduced(rng, 2, s) for s in sizes])
    Word, subgroups = pf.words.Word, pf.subgroups

    def op(gens):
        words = [Word(g) for g in gens]
        return Op(lambda: subgroups.subgroup_presentation(f.complex, f.weighting, words))

    def check(outputs):
        return [_fold_ok(res, gens) for res, gens in zip(outputs, inputs)]

    return Round([op(g) for g in inputs], check, _presentation_digest,
                 [f"{FOLD_ROUND} bouquets of total length {FOLD_LENGTH} in {parts} generators"])


# --- attach -------------------------------------------------------------------


def attach_round(rng: random.Random, pf, files) -> Round:
    f = files["genus2"]
    words = []
    for i in range(ATTACH_ROUND):
        w: tuple[int, ...] = ()
        for _ in range(ATTACH_CONJUGATES):
            c = random_reduced(rng, 4, rng.randint(0, 3))
            w += c + random_rotation(rng, oracles.GENUS2_RELATOR) + inverse(c)
        if i % 4 == 0:  # one extra letter: nontrivial in the abelianisation
            pos = rng.randint(0, len(w))
            w = w[:pos] + (rng.choice((1, -1, 2, -2, 3, -3, 4, -4)),) + w[pos:]
        words.append(free_reduce(w))
    expected = [oracles.genus2_trivial(w) for w in words]
    Word, subgroups = pf.words.Word, pf.subgroups

    def op(w):
        u = Word(w)
        return Op(lambda: subgroups.member(f.complex, f.weighting, [], u))

    def check(outputs):
        return [res is want for res, want in zip(outputs, expected)]

    return Round([op(w) for w in words], check, _bool_digest,
                 [f"{ATTACH_ROUND} products of {ATTACH_CONJUGATES} relator conjugates,"
                  f" {sum(expected)} trivial"])


# --- member -------------------------------------------------------------------


def _aab3_query(rng: random.Random, kind: int) -> tuple[int, ...]:
    if kind == 0:  # a conjugate of a rotation of the relator: trivial
        c = random_reduced(rng, 2, rng.randint(0, 3))
        return free_reduce(c + random_rotation(rng, AAB3_RELATOR) + inverse(c))
    if kind == 1:  # the same with one letter dropped: nontrivial
        c = random_reduced(rng, 2, rng.randint(0, 3))
        rho = random_rotation(rng, AAB3_RELATOR)
        k = rng.randrange(len(rho))
        return free_reduce(c + rho[:k] + rho[k + 1:] + inverse(c))
    if kind == 2:
        return random_reduced(rng, 2, rng.randint(1, 16))
    # a subword of a relator power: trivial only at length 9
    rho = random_rotation(rng, AAB3_RELATOR)
    return (rho * 2)[:rng.randint(5, 16)]


def _torus_queries() -> list[tuple[list[tuple[int, ...]], tuple[int, ...]]]:
    """Fixed torus share, the same for every seed, so that the queries the
    torus fault of `member` breaks are a fixed count per round."""
    rng = random.Random("perfbench:member:torus")
    queries = [([], w) for w in TORUS_FAULT_WORDS]
    comm = (1, 2, -1, -2)
    for _ in range(2):
        c = random_reduced(rng, 2, rng.randint(1, 3))
        queries.append(([], free_reduce(c + random_rotation(rng, comm) + inverse(c))))
        queries.append(([], random_reduced(rng, 2, rng.randint(1, 10))))
    for _ in range(8):
        gens = [random_reduced(rng, 2, rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
        queries.append((gens, random_reduced(rng, 2, rng.randint(1, 10))))
    return queries


def member_round(rng: random.Random, pf, files) -> Round:
    aab3, torus = files["aab3"], files["torus"]
    Word, subgroups = pf.words.Word, pf.subgroups
    ops, expected = [], []
    for i in range(MEMBER_AAB_ROUND):
        u = _aab3_query(rng, i % 4)
        expected.append(oracles.aab3_trivial(u))
        w = Word(u)
        ops.append(Op(lambda w=w: subgroups.member(aab3.complex, aab3.weighting, [], w)))
    for gens, u in _torus_queries():
        expected.append(oracles.torus_member(gens, u))
        g, w = [Word(x) for x in gens], Word(u)
        ops.append(Op(lambda g=g, w=w: subgroups.member(torus.complex, torus.weighting, g, w),
                      fault_class=True))

    def check(outputs):
        return [res is want for res, want in zip(outputs, expected)]

    trivial = sum(expected[:MEMBER_AAB_ROUND])
    return Round(ops, check, _bool_digest,
                 [f"{MEMBER_AAB_ROUND} (aab)^3 queries ({trivial} trivial),"
                  f" {len(ops) - MEMBER_AAB_ROUND} fixed torus queries"])


# --- intersect ----------------------------------------------------------------


def intersect_round(rng: random.Random, pf, files) -> Round:
    f = files["genus2"]
    Word, subgroups = pf.words.Word, pf.subgroups
    lo, hi = INTERSECT_GEN_LENGTH
    pairs = []
    for i in range(INTERSECT_PAIRS):
        h = [random_reduced(rng, 4, rng.randint(lo, hi)) for _ in range(2)]
        k = [h[0] if i % 2 == 0 else random_reduced(rng, 4, rng.randint(lo, hi)),
             random_reduced(rng, 4, rng.randint(lo, hi))]
        pairs.append(([Word(g) for g in h], [Word(g) for g in k], i % 2 == 0))
    ops = []
    for hw, kw, _shared in pairs:
        ops.append(Op(lambda hw=hw, kw=kw: subgroups.intersect(f.complex, f.weighting, hw, kw)))
        ops.append(Op(lambda hw=hw, kw=kw: subgroups.intersect(f.complex, f.weighting, kw, hw)))

    def check(outputs):
        """H∩K and K∩H have equal abelian invariants, and so do H∩H and
        the presentation of H.  Subgroups of infinite index in a surface
        group are free, so no invariant has torsion, and a pair sharing a
        generator has a nontrivial intersection."""
        ok = []
        for (hw, _kw, shared), hk, kh in zip(pairs, outputs[0::2], outputs[1::2]):
            good = not isinstance(hk, BaseException) and not isinstance(kh, BaseException)
            if good:
                inv = _invariants(hk)
                try:
                    hh = subgroups.intersect(f.complex, f.weighting, hw, hw)
                    h = subgroups.subgroup_presentation(f.complex, f.weighting, hw)
                except Exception:
                    good = False
                else:
                    good = (inv == _invariants(kh) and _invariants(hh) == _invariants(h)
                            and inv[1] == () and (inv[0] >= 1 or not shared))
            ok += [good, good]
        return ok

    return Round(ops, check, _presentation_digest,
                 [f"{INTERSECT_PAIRS} pairs of two-generator subgroups, generators of"
                  f" {lo}-{hi} letters, every other pair sharing a generator"])


WORKLOADS = {
    "fold": fold_round,
    "attach": attach_round,
    "member": member_round,
    "intersect": intersect_round,
}


def build_round(workload: str, seed: int, pf, files) -> Round:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return WORKLOADS[workload](rng, pf, files)
