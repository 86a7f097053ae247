"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals: the
Stallings oracle folds plain edge lists, the piece oracle matches substrings
of doubled words, and the grid builder assembles subcomplexes of the cubical
cover directly.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, strategies as st

from perifold.complexes import Complex2, standard_complex
from perifold.maps import CombMap
from perifold.weights import Weighting
from perifold.words import Presentation, Word, cyclic_reduce

from fixtures import zzz_presentation


# --- independent free-group oracle -------------------------------------------


class GraphOracle:
    """Brute-force Stallings graph over a free group: plain edge triples,
    folding by repeatedly merging the two targets of a doubled letter."""

    def __init__(self, words):
        self.base = 0
        self._next = 1
        self._raw_edges: list[tuple[int, int, int]] = []
        for w in words:
            letters = list(w.letters) if isinstance(w, Word) else list(w)
            self._add_loop(letters)
        self._fold()

    def _add_loop(self, w: list[int]) -> None:
        if not w:
            return
        cur = self.base
        for letter in w[:-1]:
            nxt = self._next
            self._next += 1
            self._raw_edges.append((cur, letter, nxt))
            cur = nxt
        self._raw_edges.append((cur, w[-1], self.base))

    def _fold(self) -> None:
        changed = True
        while changed:
            changed = False
            seen: set[tuple[int, int, int]] = set()
            deduped = []
            for (a, letter, b) in self._raw_edges:
                key = (a, letter, b) if letter > 0 else (b, -letter, a)
                if key not in seen:
                    seen.add(key)
                    deduped.append(key)
            if len(deduped) != len(self._raw_edges):
                self._raw_edges = deduped
                changed = True
                continue
            multi: dict[tuple[int, int], set[int]] = {}
            for (u, letter, v) in self._raw_edges:
                multi.setdefault((u, letter), set()).add(v)
                multi.setdefault((v, -letter), set()).add(u)
            for (_u, _letter), targets in sorted(multi.items()):
                if len(targets) > 1:
                    t = sorted(targets)
                    keep, drop = t[0], t[1]
                    self._raw_edges = [
                        (keep if a == drop else a, letter, keep if b == drop else b)
                        for (a, letter, b) in self._raw_edges
                    ]
                    if self.base == drop:
                        self.base = keep
                    changed = True
                    break
        self.adj: dict[int, dict[int, int]] = {self.base: {}}
        for (a, letter, b) in self._raw_edges:
            self.adj.setdefault(a, {})[letter] = b
            self.adj.setdefault(b, {})[-letter] = a

    def member(self, w) -> bool:
        letters = list(w.letters) if isinstance(w, Word) else list(w)
        cur = self.base
        for letter in letters:
            nxt = self.adj.get(cur, {}).get(letter)
            if nxt is None:
                return False
            cur = nxt
        return cur == self.base

    def rank(self) -> int:
        return len(self._raw_edges) - len(self.adj) + 1

    def intersection_rank(self, other: "GraphOracle") -> int:
        base = (self.base, other.base)
        seen = {base}
        frontier = [base]
        edges = 0
        while frontier:
            nxt = []
            for (u1, u2) in frontier:
                for letter, v1 in self.adj.get(u1, {}).items():
                    v2 = other.adj.get(u2, {}).get(letter)
                    if v2 is None:
                        continue
                    if letter > 0:
                        edges += 1
                    if (v1, v2) not in seen:
                        seen.add((v1, v2))
                        nxt.append((v1, v2))
            frontier = nxt
        return edges - len(seen) + 1


# --- independent piece oracle -------------------------------------------------


def _direction_word(bdry: tuple[int, ...], s: int) -> tuple[int, ...]:
    return bdry if s == 1 else tuple(-d for d in reversed(bdry))


def oracle_max_piece(cells: list[tuple[int, ...]], cell: int, start: int) -> int:
    """Longest piece of the boundary of `cell` starting forward at `start`,
    by direct substring matching over all rotations and reversals."""

    def occurrences(path: tuple[int, ...]):
        out = []
        for b, bdry in enumerate(cells):
            m = len(bdry)
            if len(path) > m:
                continue
            for s in (1, -1):
                w = _direction_word(bdry, s)
                doubled = w + w
                for t in range(m):
                    if tuple(doubled[t:t + len(path)]) == path:
                        out.append((b, t, s))
        return out

    def symmetric(occ_a, occ_b) -> bool:
        # In direction-word coordinates every commuting circle homeomorphism
        # (rotation or reflection) becomes a rotation matching the full words.
        (a, i, s), (b, j, t) = occ_a, occ_b
        ba, bb = cells[a], cells[b]
        if len(ba) != len(bb):
            return False
        m = len(ba)
        wa = _direction_word(ba, s)
        wb = _direction_word(bb, t)
        r = (j - i) % m
        return all(wb[(q + r) % m] == wa[q] for q in range(m))

    bdry = cells[cell]
    m = len(bdry)
    best = 0
    for length in range(1, m + 1):
        path = tuple(bdry[(start + t) % m] for t in range(length))
        me = (cell, start, 1)
        if any(o != me and not symmetric(me, o) for o in occurrences(path)):
            best = length
        else:
            break
    return best


# --- random presentations ------------------------------------------------------


@st.composite
def relator_complexes(draw, max_letters: int = 40) -> Complex2:
    """Standard complexes of 1-3 relators of at most `max_letters` letters
    over 1-3 generators; each relator is a random word, a proper power, or a
    string of blocks shared by all relators, so pieces of every length and
    word-matching rotations and reflections both occur."""
    ngens = draw(st.integers(1, 3))
    letter = st.sampled_from([s * g for g in range(1, ngens + 1) for s in (1, -1)])
    blocks = draw(st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "power", "blocks"]))
        if kind == "random":
            letters = draw(st.lists(letter, min_size=1, max_size=max_letters))
        elif kind == "power":
            letters = draw(st.lists(letter, min_size=1, max_size=8)) * draw(st.integers(2, 6))
        else:
            letters = [d for b in draw(st.lists(st.sampled_from(blocks), min_size=1,
                                                max_size=8)) for d in b]
        r = cyclic_reduce(Word(tuple(letters[:max_letters])))
        if r.letters:
            relators.append(r)
    assume(relators)
    gens = tuple(f"g{i + 1}" for i in range(ngens))
    return standard_complex(Presentation(gens, tuple(relators)))


@st.composite
def side_weightings(draw, x: Complex2) -> Weighting:
    """Weightings of x: unit weights, weight 0 on the sides over a set of
    generators, or random weights in 0..3, so sides of weight 0 and
    subpaths of equal perimeter both occur; a cell whose sides all drew 0
    gets unit weights."""
    kind = draw(st.sampled_from(["unit", "magnus", "random"]))
    if kind == "unit":
        rows = [[1] * len(b) for b in x.cells]
    elif kind == "magnus":  # weight 0 on the sides over a set of generators
        zero = draw(st.sets(st.integers(1, x.num_edges())))
        rows = [[0 if abs(d) in zero else 1 for d in b] for b in x.cells]
    else:
        rows = [draw(st.lists(st.integers(0, 3), min_size=len(b), max_size=len(b)))
                for b in x.cells]
    rows = [row if sum(row) else [1] * len(row) for row in rows]
    return Weighting(x, tuple(tuple(row) for row in rows))


# --- abelianization -----------------------------------------------------------


def abelian_invariants(pres) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion coefficients > 1) of the abelianized presentation."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    ngen = len(pres.generators)
    if not pres.relators:
        return ngen, ()
    rows = []
    for r in pres.relators:
        row = [0] * ngen
        for ell in r.letters:
            row[abs(ell) - 1] += 1 if ell > 0 else -1
        rows.append(row)
    snf = smith_normal_form(Matrix(rows))
    diag = [abs(snf[i, i]) for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d != 0]
    return ngen - len(nonzero), tuple(sorted(d for d in nonzero if d > 1))


# --- random cubical subcomplexes ----------------------------------------------


_SQUARES = []
for _axes in ((0, 1), (0, 2), (1, 2)):
    for _base in itertools.product(range(2), repeat=3):
        _SQUARES.append((_axes, _base))


def random_grid_subcomplex(rng: random.Random, max_squares: int = 8) -> CombMap:
    """Random subcomplex of the cubical cover of the rank-3 free abelian
    complex; embedded in a covering space, hence a near-immersion."""
    x = standard_complex(zzz_presentation())
    chosen = rng.sample(_SQUARES, rng.randint(1, max_squares))
    vid: dict[tuple, int] = {}
    eid: dict[tuple, int] = {}
    edges: list[tuple[int, int]] = []
    edge_image: list[int] = []

    def vertex(pt):
        if pt not in vid:
            vid[pt] = len(vid)
        return vid[pt]

    def edge(pt, axis):
        key = (pt, axis)
        if key not in eid:
            src = vertex(pt)
            tip = list(pt)
            tip[axis] += 1
            tgt = vertex(tuple(tip))
            edges.append((src, tgt))
            edge_image.append(axis + 1)
            eid[key] = len(edges)
        return eid[key]

    cells = []
    cell_image = []
    relator_of = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    for (a1, a2), base in chosen:
        p0 = base
        p1 = list(base); p1[a1] += 1; p1 = tuple(p1)
        p3 = list(base); p3[a2] += 1; p3 = tuple(p3)
        cells.append((edge(p0, a1), edge(p1, a2), -edge(p3, a1), -edge(p0, a2)))
        cell_image.append((relator_of[(a1, a2)], 0, False))
    if rng.random() < 0.5:
        pt = rng.choice(sorted(vid))
        edge(pt, rng.randint(0, 2))
    dom = Complex2(len(vid), edges, cells)
    m = CombMap(dom, x, [0] * len(vid), edge_image, cell_image, 0)
    m.validate()
    return m


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def bounded_power(monkeypatch):
    """Make the parser's `power` fail, before allocating, on an expansion
    past the word bound; yields the running total of letters expanded."""
    from perifold import words

    expanded = [0]
    original = words.power

    def guarded(w, n):
        assert len(w) * abs(n) <= words.MAX_WORD_LETTERS, "unbounded power expansion"
        expanded[0] += len(w) * abs(n)
        return original(w, n)

    monkeypatch.setattr(words, "power", guarded)
    yield expanded


@pytest.fixture
def derivations(monkeypatch):
    """Count `compute_pieces` calls (key "pieces") and link-girth searches
    (key ("girth", v) per vertex v) at the sites `Complex2` calls them."""
    from perifold import complexes

    calls: Counter = Counter()
    compute_pieces, link_graph = complexes.compute_pieces, complexes.link_graph

    def counted_pieces(x):
        calls["pieces"] += 1
        return compute_pieces(x)

    def counted_link(x, v):
        calls[("girth", v)] += 1
        return link_graph(x, v)

    monkeypatch.setattr(complexes, "compute_pieces", counted_pieces)
    monkeypatch.setattr(complexes, "link_graph", counted_link)
    yield calls
