import pytest
from hypothesis import given, strategies as st

from perifold.complexes import standard_complex
from perifold.maps import find_fold
from perifold.weights import (
    WeightError,
    cell_weight,
    edge_perimeters,
    map_perimeter,
    packet_weight,
    path_perimeter,
    shortest_subpath_reaching,
    subpath_perimeter,
    unit_weighting,
    weighting_from_rows,
)
from perifold.words import parse_presentation

import fixtures
from reference import apply_fold, build_packet, identity_map, reference_bouquet_map, word


@pytest.fixture(scope="module")
def aab3():
    x = standard_complex(fixtures.aab_power_presentation(3))
    return x, unit_weighting(x)


def test_unit_weighting(aab3):
    x, w = aab3
    assert edge_perimeters(w) == [6, 3]
    assert cell_weight(w, 0) == 9
    circle = standard_complex(parse_presentation("gens a"))
    wc = unit_weighting(circle)
    assert edge_perimeters(wc) == [0]


def test_weighted_zzz_quantities():
    x = standard_complex(fixtures.zzz_presentation())
    w = fixtures.zzz_weighting(x)
    assert edge_perimeters(w) == [5, 12, 5]
    assert [cell_weight(w, c) for c in range(3)] == [10, 3, 9]


def test_weighting_validation():
    x = standard_complex(fixtures.torus_presentation())
    with pytest.raises(WeightError):
        weighting_from_rows(x, [(0, 0, 0, 0)])  # zero cell weight
    with pytest.raises(WeightError):
        weighting_from_rows(x, [(1, -1, 1, 1)])  # negative
    with pytest.raises(WeightError):
        weighting_from_rows(x, [(1, 1, 1)])  # wrong arity


def test_box_perimeters():
    m = fixtures.zzz_box_map()
    w_unit = unit_weighting(m.codomain)
    w = fixtures.zzz_weighting(m.codomain)
    assert map_perimeter(w_unit, m) == 28
    assert map_perimeter(w, m) == 54


def test_identity_and_cover_have_zero_perimeter():
    for x in [
        standard_complex(fixtures.torus_presentation()),
        standard_complex(fixtures.zzz_presentation()),
        standard_complex(fixtures.modify_presentation()),
    ]:
        assert map_perimeter(unit_weighting(x), identity_map(x)) == 0
    cover = fixtures.double_cover_of_torus()
    assert map_perimeter(unit_weighting(cover.codomain), cover) == 0


def test_folded_two_squares():
    phi, psi = fixtures.two_squares_maps()
    w = unit_weighting(phi.codomain)
    assert map_perimeter(w, phi) == 0
    assert map_perimeter(w, psi) == 1


def test_path_perimeter(aab3):
    x, w = aab3
    assert path_perimeter(w, word([1, 1])) == 12
    assert path_perimeter(w, word([])) == 0
    assert path_perimeter(w, word([2])) == 3


def test_packet_perimeter(aab3):
    x, w = aab3
    assert map_perimeter(w, build_packet(x, 0)) == 18
    torus = standard_complex(fixtures.torus_presentation())
    wt = unit_weighting(torus)
    # exponent 1: packet = cell, P = P(boundary) - Wt
    assert map_perimeter(wt, build_packet(torus, 0)) == \
        path_perimeter(wt, word(torus.cells[0])) - 4


def test_sform_identity(aab3):
    # P(packet) = P(Q) + P(S) - n*Wt(R) with Q the whole boundary;
    # test_05_sform_identity checks every subpath of a suite of complexes
    x, w = aab3
    assert (map_perimeter(w, build_packet(x, 0)), subpath_perimeter(w, 0, 0, 9),
            subpath_perimeter(w, 0, 9, 0), packet_weight(w, 0)) == (18, 45, 0, 27)


_SUBPATH_COMPLEXES = [
    standard_complex(pres)
    for pres in (
        fixtures.aab_power_presentation(3),
        fixtures.zzz_presentation(),
        fixtures.modify_presentation(),
        fixtures.two_relator_block_presentation(),
    )
]


@given(st.data())
def test_subpath_perimeter_matches_modular_sum(data):
    x = data.draw(st.sampled_from(_SUBPATH_COMPLEXES))
    rows = [
        data.draw(st.lists(st.integers(0, 5), min_size=len(b), max_size=len(b)).filter(any))
        for b in x.cells
    ]
    w = weighting_from_rows(x, rows)
    per = [
        sum(rows[c][i] for c, bdry in enumerate(x.cells)
            for i, d in enumerate(bdry) if abs(d) - 1 == e)
        for e in range(x.num_edges())
    ]
    assert edge_perimeters(w) == per
    c = data.draw(st.integers(0, x.num_cells() - 1))
    bdry = x.cells[c]
    m = len(bdry)
    start = data.draw(st.integers(0, 2 * m - 1))
    length = data.draw(st.integers(0, m))
    assert subpath_perimeter(w, c, start, length) == \
        sum(per[abs(bdry[(start + t) % m]) - 1] for t in range(length))
    # the least length whose sum reaches a total, |R| + 1 when none does
    sums = [sum(per[abs(bdry[(start + t) % m]) - 1] for t in range(k)) for k in range(m + 1)]
    total = data.draw(st.integers(-1, sums[-1] + 1))
    strict = data.draw(st.booleans())
    assert shortest_subpath_reaching(w, c, start, total, strict) == \
        next((k for k, p in enumerate(sums) if p > total or (p == total and not strict)), m + 1)
    assert shortest_subpath_reaching(w, c, start, sums[-1], strict=True) == m + 1


def test_perimeter_monotone_under_folds(rng):
    # quotients are surjective, so the perimeter can only drop
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    for _ in range(20):
        from perifold.words import free_reduce

        gens = [
            free_reduce(word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]))
            for _ in range(2)
        ]
        gens = [g for g in gens if g.letters]
        if not gens:
            continue
        m = reference_bouquet_map(x, gens)
        p = map_perimeter(w, m)
        while find_fold(m) is not None:
            m = apply_fold(m).map
            p2 = map_perimeter(w, m)
            assert p2 <= p
            p = p2
