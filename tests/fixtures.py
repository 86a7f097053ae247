"""Worked examples: standard presentations, cover subcomplexes, and the maps
used by the regression suite and the experiment scripts; the seeded word
draws that the tests, the answer corpus and the scaling script take their
inputs from; and the reduction-scaling measurement of acceptance test 10."""

from __future__ import annotations

import random
import time

from perifold.complexes import Complex2, standard_complex
from perifold.engine import ReductionTrace, reduce_domain
from perifold.maps import CombMap, Domain
from perifold.subgroups import _collector_paused
from perifold.weights import Weighting, unit_weighting, weighting_from_rows
from perifold.words import Presentation, Word, free_reduce, inverse, parse_presentation


def free_presentation(rank: int = 2) -> Presentation:
    names = tuple("abcdefgh"[:rank]) if rank <= 8 else \
        tuple(f"g{i}" for i in range(rank))
    return Presentation(names, ())


def aab_power_presentation(n: int = 3) -> Presentation:
    """<a, b | (aab)^n>."""
    return parse_presentation(f"gens a b / rel ( a a b )^{n}")


def torus_presentation() -> Presentation:
    """<a, b | a b a^-1 b^-1>."""
    return parse_presentation("gens a b / rel a b a^-1 b^-1")


def zzz_presentation() -> Presentation:
    """<a, b, c | [a,b], [a,c], [b,c]>."""
    return parse_presentation(
        "gens a b c / rel a b a^-1 b^-1 / rel a c a^-1 c^-1 / rel b c b^-1 c^-1"
    )


def zzz_weighting(x: Complex2) -> Weighting:
    """Side weights (1,2,3,4), (1,2,0,0), (1,3,5,0) on the three squares."""
    return weighting_from_rows(x, [(1, 2, 3, 4), (1, 2, 0, 0), (1, 3, 5, 0)])


def zzz_box_map() -> CombMap:
    """The 1x1x1 open box (four walls and a bottom, no top) inside the cubical
    cover of the rank-3 free abelian complex, composed down to the base."""
    x = standard_complex(zzz_presentation())

    vid = {}
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                vid[(i, j, k)] = len(vid)
    edges = []
    edge_image = []
    eid = {}

    def add_edge(src, tgt, letter):
        eid[(src, tgt)] = len(edges) + 1
        eid[(tgt, src)] = -(len(edges) + 1)
        edges.append((vid[src], vid[tgt]))
        edge_image.append(letter)

    for j in (0, 1):
        for k in (0, 1):
            add_edge((0, j, k), (1, j, k), 1)  # a along x
    for i in (0, 1):
        for k in (0, 1):
            add_edge((i, 0, k), (i, 1, k), 2)  # b along y
    for i in (0, 1):
        for j in (0, 1):
            add_edge((i, j, 0), (i, j, 1), 3)  # c along z

    def square(p0, p1, p2, p3):
        return (eid[(p0, p1)], eid[(p1, p2)], eid[(p2, p3)], eid[(p3, p0)])

    cells = [
        # bottom: a b a^-1 b^-1 at z=0
        square((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)),
        # walls y=0 and y=1: a c a^-1 c^-1
        square((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
        square((0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)),
        # walls x=0 and x=1: b c b^-1 c^-1
        square((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)),
        square((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    ]
    cell_image = [(0, 0, False), (1, 0, False), (1, 0, False),
                  (2, 0, False), (2, 0, False)]
    dom = Complex2(len(vid), edges, list(cells))
    m = CombMap(dom, x, [0] * len(vid), edge_image, cell_image, 0)
    m.validate()
    return m


def two_squares_maps() -> tuple[CombMap, CombMap]:
    """Two squares glued along a common 1-cell; the isomorphism and the map
    folding both squares onto the first one."""
    # vertices u, v, w1, z1, w2, z2; shared edge x: u -> v
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]
    cells = [(1, 2, 3, 4), (1, 5, 6, 7)]
    x = Complex2(6, edges, cells)
    x.validate()
    phi = CombMap(x, x, list(range(6)), [e + 1 for e in range(7)],
                  [(0, 0, False), (1, 0, False)], 0)
    phi.validate()
    psi_vertices = [0, 1, 2, 3, 2, 3]
    psi_edges = [1, 2, 3, 4, 2, 3, 4]
    psi = CombMap(x, x, psi_vertices, psi_edges,
                  [(0, 0, False), (0, 0, False)], 0)
    psi.validate()
    return phi, psi


def double_cover_of_torus() -> CombMap:
    """Index-2 cover of the commutator-square complex; every side present."""
    x = standard_complex(torus_presentation())
    edges = [(0, 1), (1, 0), (0, 0), (1, 1)]  # a1, a2, b1 loop, b2 loop
    edge_image = [1, 1, 2, 2]
    cells = [(1, 4, -1, -3), (2, 3, -2, -4)]
    dom = Complex2(2, edges, cells)
    m = CombMap(dom, x, [0, 0], edge_image, [(0, 0, False), (0, 0, False)], 0)
    m.validate()
    return m


def reflected_square_map() -> CombMap:
    """A circle carrying the commutator read backwards, with the square
    attached through an orientation-reversing identification."""
    x = standard_complex(torus_presentation())
    # domain circle spells b a b^-1 a^-1 = -(target boundary) read from offset 3
    edges = [(0, 1), (1, 2), (3, 2), (0, 3)]
    edge_image = [2, 1, 2, 1]
    cells = [(1, 2, -3, -4)]
    dom = Complex2(4, edges, cells)
    m = CombMap(dom, x, [0] * 4, edge_image, [(0, 3, True)], 0)
    m.validate()
    return m


def ladder_start_map() -> CombMap:
    """Image of the closed commutator path in the cylindrical cover of the
    rank-2 free abelian complex: three vertices in a line, double edges."""
    x = standard_complex(torus_presentation())
    # levels -2, -1, 0 as vertices 0, 1, 2
    edges = [(0, 1), (0, 1), (1, 2), (1, 2)]  # a_-2, b_-2, a_-1, b_-1
    edge_image = [1, 2, 1, 2]
    dom = Complex2(3, edges, [])
    m = CombMap(dom, x, [0, 0, 0], edge_image, [], 0)
    m.validate()
    return m


def surface_presentation(genus: int, orientable: bool) -> Presentation:
    if orientable:
        gens = []
        rel = []
        for i in range(1, genus + 1):
            gens += [f"a{i}", f"b{i}"]
            rel.append(f"a{i} b{i} a{i}^-1 b{i}^-1")
        return parse_presentation(f"gens {' '.join(gens)} / rel {' '.join(rel)}")
    gens = [f"a{i}" for i in range(1, genus + 1)]
    rel = " ".join(f"a{i}^2" for i in range(1, genus + 1))
    return parse_presentation(f"gens {' '.join(gens)} / rel {rel}")


def modify_presentation() -> Presentation:
    """<a..f | abcdef^-1, fafbfcfdfe>, the retooled five-letter one-relator
    group with a spelled-out product generator."""
    return parse_presentation(
        "gens a b c d e f / rel a b c d e f^-1 / rel f a f b f c f d f e"
    )


def modify_weighting(x: Complex2) -> Weighting:
    """Weight 1 on sides labelled a..e, weight 0 on sides labelled f."""
    rows = [tuple(0 if abs(d) == 6 else 1 for d in bdry) for bdry in x.cells]
    return weighting_from_rows(x, rows)


def two_relator_block_presentation() -> Presentation:
    """Eight generators; one relator U mixing them in blocks of four, one
    relator V of fourth powers.  Pieces differ sharply between the two.

    U lists the blocks (k, k+3, k+2, k+6) mod 8 with the start k advancing
    by 3, so its steps are +3, +7, +4 inside a block and +5 across each
    join.  These are distinct mod 8 and none is V's 0 or +1, so no
    two-letter word occurs twice: U's pieces are single letters, while V's
    longest piece is iii.  Every letter occurs four times in each relator,
    and side weights (1, 3) on (U, V) are the unique ratio meeting the
    two-piece (C4T4) inequality, with equality on both relators."""
    u_blocks = ["1437", "4762", "7215", "2548", "5873", "8326", "3651", "6184"]
    v_blocks = [str(i) * 4 for i in range(1, 9)]
    u = " ".join(" ".join(b) for b in u_blocks)
    v = " ".join(" ".join(b) for b in v_blocks)
    return parse_presentation(f"gens 1 2 3 4 5 6 7 8 / rel {u} / rel {v}")


def two_relator_block_weighting(x: Complex2, u_weight: int = 1, v_weight: int = 3) -> Weighting:
    return weighting_from_rows(
        x, [tuple(u_weight for _ in x.cells[0]), tuple(v_weight for _ in x.cells[1])]
    )


def magnus_example_presentation() -> Presentation:
    """<a,b,c,d | abcd dacb badc>."""
    return parse_presentation("gens a b c d / rel a b c d d a c b b a d c")


# --- CLI input files ---------------------------------------------------------
# The input texts of the CLI tests and of the CLI half of the answer corpus
# (`tests/cli_corpus.py`), so each of them is part of the corpus.

ZZZ = """\
gens a b c
rel a b a^-1 b^-1
rel a c a^-1 c^-1
rel b c b^-1 c^-1
weights rel 1: 1 2 3 4
weights rel 2: 1 2 0 0
weights rel 3: 1 3 5 0
"""

FREE = """\
gens a b
words H: a^2, a b
"""

AAB9 = """\
gens a b
rel ( a a b )^9
weights unit
"""

MODIFY = """\
gens a b c d e f
rel a b c d e f^-1
rel f a f b f c f d f e
weights gen f 0
"""

# <a, b, t | [a, t], [b, t]>: no certificate of any grade holds
FGIP = """\
gens a b t
rel a t a^-1 t^-1
rel b t b^-1 t^-1
"""

TORUS = "gens a b\nrel a b a^-1 b^-1\n"

GENUS2 = "gens a1 b1 a2 b2\nrel a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n"


# --- seeded word draws --------------------------------------------------------
# The answer corpus's inputs are drawn through these, so each rng call and
# its order is part of the corpus.


def random_reduced_word(rng: random.Random, ngens: int, length: int) -> Word:
    letters: list[int] = []
    while len(letters) < length:
        choices = [s * g for g in range(1, ngens + 1) for s in (1, -1)]
        if letters:
            choices = [c for c in choices if c != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters))


def random_generator_set(rng: random.Random, ngens: int, total_length: int,
                         parts: int) -> list[Word]:
    cuts = sorted(rng.sample(range(1, total_length), parts - 1)) if parts > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total_length])]
    return [random_reduced_word(rng, ngens, max(1, s)) for s in sizes]


def relator_conjugate_product(rng: random.Random, relator: Word, ngens: int, k: int) -> Word:
    """Free reduction of a product of k conjugates c r c^-1, each r a random
    rotation of the relator or of its inverse and each c a random reduced
    word of 0-3 letters."""
    letters: tuple[int, ...] = ()
    for _ in range(k):
        c = random_reduced_word(rng, ngens, rng.randint(0, 3))
        r = relator if rng.random() < 0.5 else inverse(relator)
        j = rng.randrange(len(r))
        letters += c.letters + r.letters[j:] + r.letters[:j] + inverse(c).letters
    return free_reduce(Word(letters))


@_collector_paused
def reduce_bouquet(w: Weighting, gens: list[Word], whisker: Word | None = None,
                   mode: str = "strict", step_limit: int | None = None) -> ReductionTrace:
    """Reduce the bouquet of gens (and the whisker, if given) as the decision
    procedures do: on a fresh bouquet domain, in place, with the cyclic
    collector paused, building it into a map once; the reduction's trace."""
    dom = Domain.bouquet(w, gens, whisker)
    trace, _exhausted = reduce_domain(dom, mode, step_limit)
    dom.to_map()
    return trace


def measure_reduction_scaling(presentation, lengths, seeds, parts: int = 3,
                              best_of: int = 1) -> list[tuple[int, int, float]]:
    """Reduce random bouquets of each total length L as
    `subgroup_presentation` does (`reduce_bouquet`, one timed call each);
    one (L, steps, seconds) per length: the mean step count over the seeds
    and the best wall clock over the seeds and `best_of` repetitions."""
    x = standard_complex(presentation)
    w = unit_weighting(x)
    out = []
    for length in lengths:
        steps_total = 0
        best = float("inf")
        for seed in seeds:
            rng = random.Random(seed)
            gens = random_generator_set(rng, len(presentation.generators),
                                        length, parts)
            gens = [g for g in map(free_reduce, gens) if g.letters]
            for _ in range(max(1, best_of)):
                t0 = time.perf_counter()
                trace = reduce_bouquet(w, gens)
                best = min(best, time.perf_counter() - t0)
            steps_total += len(trace.steps)
        out.append((length, steps_total // max(1, len(seeds)), best))
    return out
