"""The answer corpus: library results on fixed inputs, each pinned by the
sha256 of a canonical JSON rendering (`json.dumps(..., sort_keys=True)`),
so that a change to any answer, trace or final map shows as a changed case.

Cases: `subgroup_presentation`, `member_with_trace` and `intersect` at the
step limits None, 0, 3 and 10, over the torus, `(aab)^3`, the genus-2
surface and `Z^3` (with `zzz_weighting` of `tests/fixtures.py`), on
inputs drawn from the seeds below.  Every call passes `force=True`, so a
complex without the operation's certificate is reduced too, and the
rendering says `heuristic`.
Over the same complexes, from seeds of their own: `fold_to_immersion` of
bouquets of words as drawn, unreduced, and of each such bouquet with a copy
of every cell glued at each vertex (`reference_augment_with_cells`), so
that folds merge cells; and weak `reduce_map` of bouquets with a whisker at
the step limits 0, 3 and 10.
And `magnus_intersect` of generator sets drawn from a seed of their own,
over the torus with the subgraphs {a} and {b} and over `Z^3` with {a}, {b}
and {c}, each with `force=True`, and of <b a^-2 b^-1 a^-2> with {a} on the
torus.

The corpus pins behaviour, not correctness: a torus `member` answer that
the exponent-sum lattice of Z^2 contradicts is tagged known-wrong (a
weak certificate gates the strict engine), and so is a `magnus_intersect`
presentation whose abelianization is not Z^r: in a free abelian group the
intersection of the subgroup L with the subgroup of the subgraph is the
kernel of the projection π that drops the subgraph's coordinates, free of
rank r = rank L - rank π(L).  `tests/data/answer_corpus.json`
holds the digests and the tags; `scripts/answer_corpus.py` regenerates it
and prints the cases that changed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from math import gcd
from pathlib import Path

from perifold.complexes import standard_complex
from perifold.subgroups import intersect, magnus_intersect, member_with_trace, \
    subgroup_presentation
from perifold.weights import unit_weighting
from perifold.words import Word, free_reduce
import fixtures
from fixtures import random_reduced_word
from reference import fold_to_immersion, reduce_map, reference_augment_with_cells, \
    reference_bouquet_map

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracles import abelian_invariants  # noqa: E402  (stdlib only; imports no perifold)

PATH = Path(__file__).resolve().parent / "data" / "answer_corpus.json"
STEP_LIMITS = (None, 0, 3, 10)
INPUTS = 20  # per operation and complex
WEAK_STEP_LIMITS = (0, 3, 10)
COMPLEXES = {
    "torus": (fixtures.torus_presentation, unit_weighting),
    "aab3": (lambda: fixtures.aab_power_presentation(3), unit_weighting),
    "genus2": (lambda: fixtures.surface_presentation(2, True), unit_weighting),
    "zzz": (fixtures.zzz_presentation, fixtures.zzz_weighting),
}
# [a^2, b^2], [a^2, b^-2] and a rotation of each: trivial in Z^2
TORUS_FAULT_WORDS = (
    (1, 1, 2, 2, -1, -1, -2, -2),
    (1, 1, -2, -2, -1, -1, 2, 2),
    (1, 2, 2, -1, -1, -2, -2, 1),
    (1, -2, -2, -1, -1, 2, 2, 1),
)
# the one-edge subgraphs of `magnus_intersect`: no single generator spans
# a free factor of Z^2 or Z^3
MAGNUS_EDGES = {"torus": (0, 1), "zzz": (0, 1, 2)}
# <b a^-2 b^-1 a^-2> ∩ <a> on the torus: <a^4>, which is Z
MAGNUS_FAULT = Word((2, -1, -1, -2, -1, -1))


def _word(rng: random.Random, x) -> Word:
    """A random reduced word, or a conjugate of a subword of a relator
    rotation, so that attachments are common."""
    if rng.random() < 0.5:
        return random_reduced_word(rng, x.num_edges(), rng.randint(1, 8))
    bdry = x.cells[rng.randrange(x.num_cells())]
    k = rng.randrange(len(bdry))
    rot = bdry[k:] + bdry[:k]
    c = random_reduced_word(rng, x.num_edges(), rng.randint(0, 2)).letters
    body = rot[:rng.randint(2, len(rot))]
    return free_reduce(Word(c + body + tuple(-d for d in reversed(c))))


def _gens(rng: random.Random, x, least: int) -> list[Word]:
    return [_word(rng, x) for _ in range(rng.randint(least, 2))]


def _drawn(rng: random.Random, x) -> Word:
    """A random word as drawn, not reduced, so that its arc may backtrack."""
    return Word(tuple(rng.choice((1, -1)) * rng.randint(1, x.num_edges())
                      for _ in range(rng.randint(1, 8))))


def _in_z2_lattice(t, vectors) -> bool:
    """Whether t lies in the lattice of Z^2 that the vectors span."""
    rows = [list(v) for v in vectors]
    while sum(1 for r in rows if r[0]) > 1:  # Euclid on the first column
        rows.sort(key=lambda r: (r[0] == 0, abs(r[0])))
        q = rows[1][0] // rows[0][0]
        rows[1] = [a - q * b for a, b in zip(rows[1], rows[0])]
    t = list(t)
    for r in rows:
        if r[0]:
            if t[0] % r[0]:
                return False
            q = t[0] // r[0]
            t = [a - q * b for a, b in zip(t, r)]
    g = 0
    for r in rows:
        if not r[0]:
            g = gcd(g, r[1])
    return t[0] == 0 and (t[1] == 0 if g == 0 else t[1] % g == 0)


def _exponents(letters) -> tuple[int, int]:
    return (sum((d > 0) - (d < 0) for d in letters if abs(d) == 1),
            sum((d > 0) - (d < 0) for d in letters if abs(d) == 2))


def _magnus_wrong(x, gens, edge, presentation) -> str | None:
    """Why a `magnus_intersect` presentation over Z^n with the subgraph
    {edge} is wrong, or None: its abelianization must be Z^r,
    r = rank L - rank π(L)."""
    n = x.num_edges()

    def rank(words) -> int:
        return n - abelian_invariants(n, words)[0]

    r = (rank([g.letters for g in gens])
         - rank([tuple(d for d in g.letters if abs(d) - 1 != edge) for g in gens]))
    got = abelian_invariants(len(presentation.generators),
                             [rel.letters for rel in presentation.relators])
    if got != (r, ()):
        return f"abelianization {got}, not Z^{r}, for a subgroup of a free abelian group"
    return None


def _rendered_map(m) -> dict:
    return {"vertices": m.domain.num_vertices, "edges": m.domain.edges,
            "cells": m.domain.cells, "vertex_image": m.vertex_image,
            "edge_image": m.edge_image, "cell_image": m.cell_image, "basepoint": m.basepoint}


def _rendered_trace(t) -> dict:
    return {"initial_perimeter": t.initial_perimeter, "initial_edges": t.initial_edges,
            "steps": [{name: getattr(s, name) for name in s._fields} for s in t.steps]}


def _rendered_result(res) -> dict:
    p = res.presentation
    return {"generators": p.generators, "relators": [r.letters for r in p.relators],
            "trace": _rendered_trace(res.trace), "exhausted": res.exhausted,
            "heuristic": res.heuristic, "final_map": _rendered_map(res.final_map)}


def _rendered_folds(res) -> dict:
    return {"folds": res.folds, "removed_cells": res.removed_cells,
            "vertex_map": res.vertex_map, "map": _rendered_map(res.map)}


def _digest(rendered) -> str:
    return hashlib.sha256(json.dumps(rendered, sort_keys=True).encode()).hexdigest()


def cases():
    """Yield (case id, rendering, known-wrong reason or None) per case."""
    for name, (presentation, weighting) in COMPLEXES.items():
        x = standard_complex(presentation())
        w = weighting(x)
        rng = random.Random(f"answer-corpus:{name}")
        presented = [_gens(rng, x, 1) for _ in range(INPUTS)]
        queries = [(_gens(rng, x, 0), _word(rng, x)) for _ in range(INPUTS)]
        if name == "torus":
            queries += [([], Word(u)) for u in TORUS_FAULT_WORDS]
        pairs = [(_gens(rng, x, 1), _gens(rng, x, 1)) for _ in range(INPUTS)]
        for limit in STEP_LIMITS:
            for k, gens in enumerate(presented):
                res = subgroup_presentation(x, w, gens, force=True, step_limit=limit)
                yield f"subgroup_presentation/{name}/{k}/limit={limit}", _rendered_result(res), None
            for k, (gens, u) in enumerate(queries):
                answer, trace = member_with_trace(x, w, gens, u, force=True, step_limit=limit)
                wrong = None
                if (name == "torus" and answer is False and _in_z2_lattice(
                        _exponents(u.letters), [_exponents(g.letters) for g in gens])):
                    wrong = ("false for a word of the subgroup:"
                             " a weak certificate gates the strict engine")
                yield (f"member_with_trace/{name}/{k}/limit={limit}",
                       {"member": answer, "trace": _rendered_trace(trace)}, wrong)
            for k, (gens_h, gens_k) in enumerate(pairs):
                res = intersect(x, w, gens_h, gens_k, force=True, step_limit=limit)
                yield f"intersect/{name}/{k}/limit={limit}", _rendered_result(res), None
        if name in MAGNUS_EDGES:
            rng = random.Random(f"answer-corpus:{name}:magnus")
            drawn = [_gens(rng, x, 1) for _ in range(INPUTS)]
            runs = [(k, gens, e) for k, gens in enumerate(drawn) for e in MAGNUS_EDGES[name]]
            if name == "torus":
                runs.append(("fault", [MAGNUS_FAULT], 0))
            for k, gens, e in runs:
                res = magnus_intersect(x, {e}, gens, force=True)
                yield (f"magnus_intersect/{name}/{k}/subgraph={e}", _rendered_result(res),
                       _magnus_wrong(x, gens, e, res.presentation))
        rng = random.Random(f"answer-corpus:{name}:fold")
        for k in range(INPUTS):
            bouquet = reference_bouquet_map(x, [_drawn(rng, x) for _ in range(rng.randint(1, 3))])
            for kind, m in (("bouquet", bouquet), ("cells", reference_augment_with_cells(bouquet))):
                yield (f"fold_to_immersion/{name}/{k}/{kind}",
                       _rendered_folds(fold_to_immersion(m)), None)
        rng = random.Random(f"answer-corpus:{name}:weak")
        for k in range(INPUTS):
            m = reference_bouquet_map(x, _gens(rng, x, 0), whisker=_word(rng, x))
            for limit in WEAK_STEP_LIMITS:
                res = reduce_map(m, w, "weak", limit)
                yield (f"reduce_map/weak/{name}/{k}/limit={limit}",
                       {"map": _rendered_map(res.map), "trace": _rendered_trace(res.trace),
                        "vertex_tracking": res.vertex_tracking, "exhausted": res.exhausted},
                       None)


def build() -> dict:
    """The corpus as stored: case id -> digest, and the known-wrong tags."""
    digests, known_wrong = {}, {}
    for case, rendered, wrong in cases():
        digests[case] = _digest(rendered)
        if wrong is not None:
            known_wrong[case] = wrong
    return {"cases": digests, "known_wrong": known_wrong}
