"""Hand-checked cases for the benchmark's oracles.

Run with ``python3 -m pytest perfbench``.
"""

from oracles import (
    AAB3_RELATOR,
    GENUS2_RELATOR,
    aab3_trivial,
    abelian_invariants,
    dehn_reduce,
    double_sum_perimeter,
    free_reduce,
    genus2_trivial,
    in_lattice,
    inverse,
    is_immersion,
    lifts_closed,
    torus_member,
)

A, B = 1, 2
a1, b1, a2, b2 = 1, 2, 3, 4


def test_free_reduce():
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)
    assert free_reduce(()) == ()


def test_newman_dehn_on_aab_cubed():
    aab = (A, A, B)
    assert aab3_trivial(aab * 3)
    assert not aab3_trivial(aab)
    assert not aab3_trivial(aab * 2)
    assert aab3_trivial(inverse(aab * 3))
    # a rotation, and a conjugate by b a^-1
    assert aab3_trivial((A, B) + aab * 2 + (A,))
    assert aab3_trivial((B, -A) + aab * 3 + (A, -B))
    # one letter short of the relator, and one letter too many
    assert not aab3_trivial(aab * 3 + (A,))
    assert not aab3_trivial((A, A, B, A, A, B, A, A))
    # (aab)^4 = aab, (aab)^6 = 1
    assert dehn_reduce(aab * 4, AAB3_RELATOR, 4) == aab
    assert aab3_trivial(aab * 6)
    assert not aab3_trivial((A,))
    assert aab3_trivial(())


def test_dehn_on_genus_two():
    r = GENUS2_RELATOR
    assert genus2_trivial(r)
    assert genus2_trivial(inverse(r))
    assert genus2_trivial(r[3:] + r[:3])
    assert genus2_trivial((a1, b2) + r + (-b2, -a1))
    assert genus2_trivial(r + r[5:] + r[:5])
    # [a1, b1] and [a2, b2] are nontrivial; their product is the relator
    assert not genus2_trivial((a1, b1, -a1, -b1))
    assert not genus2_trivial((a2, b2, -a2, -b2))
    assert not genus2_trivial(r + (a1,))
    # five letters of the relator equal the inverse of the other three
    assert dehn_reduce(r[:5], r, 4) == inverse(r[5:])


def test_torus_exponent_sum_lattice():
    # [a^2, b^2] is trivial in Z^2
    assert torus_member([], (A, A, B, B, -A, -A, -B, -B))
    assert not torus_member([], (A, B))
    assert torus_member([(A, A), (B,)], (B, A, A, B))
    assert not torus_member([(A, A), (B,)], (A, B))
    assert torus_member([(A, B)], (B, A, B, A))
    assert not torus_member([(A, B)], (A, A, B))
    assert torus_member([(A, A, B), (A, B, B)], (A, A, A, B, B, B))
    assert not torus_member([(A, A, B), (A, B, B)], (A,))


def test_lattice_membership():
    assert in_lattice((6, 4), [(2, 0), (0, 2)])
    assert not in_lattice((3, 4), [(2, 0), (0, 2)])
    assert in_lattice((1, 0), [(3, 1), (2, 1)])  # det 1: the whole of Z^2
    assert in_lattice((0, 0, 0), [])
    assert not in_lattice((0, 1, 0), [(0, 2, 0), (1, 0, 0)])


def test_smith_form_invariants():
    # Z^2 = <a, b | [a, b]>
    assert abelian_invariants(2, [(A, B, -A, -B)]) == (2, ())
    # Z/6
    assert abelian_invariants(1, [(A,) * 6]) == (0, (6,))
    # [[2, 4], [4, 2]] has invariant factors 2, 6 (determinant -12)
    assert abelian_invariants(2, [(A, A, B, B, B, B), (A, A, A, A, B, B)]) == (0, (2, 6))
    # Z/2 + Z/3 is Z/6
    assert abelian_invariants(2, [(A, A), (B, B, B)]) == (0, (6,))
    assert abelian_invariants(3, []) == (3, ())
    # <a, b | a b^-1>: Z
    assert abelian_invariants(2, [(A, -B)]) == (1, ())
    # (aab)^3: exponent sums (6, 3), so Z + Z/3
    assert abelian_invariants(2, [AAB3_RELATOR]) == (1, (3,))


def test_immersion_and_closed_lifts():
    # a circle of two a-edges is immersed and reads a^2 and a^-2 closed
    edges, labels = [(0, 1), (1, 0)], [A, A]
    assert is_immersion(edges, labels)
    assert lifts_closed(edges, labels, 0, (A, A))
    assert lifts_closed(edges, labels, 0, (-A, -A))
    assert not lifts_closed(edges, labels, 0, (A,))
    assert not lifts_closed(edges, labels, 0, (B,))
    # two a-loops at one vertex fold
    assert not is_immersion([(0, 0), (0, 0)], [A, A])
    # an a-loop and an edge into a vertex with label a also fold (as a^-1)
    assert not is_immersion([(0, 0), (1, 0)], [A, A])
    assert is_immersion([(0, 0), (0, 0)], [A, B])


def test_double_sum_perimeter():
    torus = [(A, B, -A, -B)]
    unit = [(1, 1, 1, 1)]
    # bouquet of the word a b: each edge misses its two sides
    assert double_sum_perimeter(torus, unit, [A, B], [], []) == 4
    # the torus itself: every side is present
    assert double_sum_perimeter(torus, unit, [A, B], [(1, 2, -1, -2)], [(0, 0, False)]) == 0
    # the same cell read reflected from the other end covers every side too
    assert double_sum_perimeter(torus, unit, [A, B], [(2, 1, -2, -1)], [(0, 3, True)]) == 0
    # weights count: a weighted a-side missing
    assert double_sum_perimeter(torus, [(5, 1, 1, 1)], [A], [], []) == 6
    # (aab)^3 over unit weights: edge a has perimeter 6, edge b 3
    aab3 = [AAB3_RELATOR]
    assert double_sum_perimeter(aab3, [(1,) * 9], [A, B, A], [], []) == 15
