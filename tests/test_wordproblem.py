"""End-to-end membership checks against independent oracles: exponent sums
for the free abelian square, Dehn's algorithm for a metric small-cancellation
one-relator power."""

import itertools
import random

from perifold.complexes import standard_complex
from perifold.subgroups import member
from perifold.weights import unit_weighting
from perifold.words import Word, free_reduce

import fixtures
from reference import word


def reduced_words(max_len, exact=None):
    lengths = [exact] if exact is not None else range(max_len + 1)
    for n in lengths:
        for letters in itertools.product([1, -1, 2, -2], repeat=n):
            u = free_reduce(Word(letters))
            if len(u.letters) == n:
                yield u


def exp_sums(u):
    ea = sum(1 if ell == 1 else -1 for ell in u.letters if abs(ell) == 1)
    eb = sum(1 if ell == 2 else -1 for ell in u.letters if abs(ell) == 2)
    return ea, eb


def test_member_on_free_abelian_square():
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    cases = [
        ([], lambda ea, eb: (ea, eb) == (0, 0)),
        ([word([1, 1]), word([2])], lambda ea, eb: ea % 2 == 0),
        ([word([1, 2])], lambda ea, eb: ea == eb),
        ([word([1, -2])], lambda ea, eb: ea == -eb),
    ]
    for gens, truth in cases:
        for u in reduced_words(5):
            assert member(x, w, gens, u) == truth(*exp_sums(u)), (gens, u)


def dehn_trivial(letters, relator, half):
    rotations = set()
    for base in (relator, tuple(-d for d in reversed(relator))):
        for k in range(len(base)):
            rotations.add(base[k:] + base[:k])
    cur = free_reduce(Word(letters)).letters
    changed = True
    while changed:
        changed = False
        n = len(cur)
        for length in range(n, half, -1):
            for s in range(n - length + 1):
                seg = cur[s:s + length]
                for rot in rotations:
                    if rot[:length] == seg:
                        repl = tuple(-d for d in reversed(rot[length:]))
                        cur = free_reduce(Word(cur[:s] + repl + cur[s + length:])).letters
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return not cur


def test_word_problem_on_torsion_one_relator():
    x = standard_complex(fixtures.aab_power_presentation(3))
    w = unit_weighting(x)
    relator = (1, 1, 2) * 3
    for u in reduced_words(6):
        want = dehn_trivial(u.letters, relator, half=4)
        assert member(x, w, [], u) == want, u
    rng = random.Random(33)
    pool = list(reduced_words(0, exact=8))
    for u in rng.sample(pool, 300):
        want = dehn_trivial(u.letters, relator, half=4)
        assert member(x, w, [], u) == want, u
    # anchors: the relator and its conjugates die, proper powers of the
    # period survive
    assert member(x, w, [], word(list(relator)))
    assert not member(x, w, [], word([1, 1, 2]))
    assert not member(x, w, [], word([1, 1, 2, 1, 1, 2]))
    assert member(x, w, [], free_reduce(word([2, -1] + list(relator) + [1, -2])))
