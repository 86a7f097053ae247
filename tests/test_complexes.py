import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perifold.complexes import (
    INF,
    Complex2,
    ComplexError,
    check_small_cancellation,
    compute_pieces,
    link_graph,
    min_piece_cover,
    standard_complex,
)
from perifold.words import Presentation, Word, parse_presentation, period_exponent

from conftest import oracle_max_piece, random_grid_subcomplex, relator_complexes
import fixtures
from fixtures import random_reduced_word
from reference import _min_piece_cover, build_packet, reference_compute_pieces


@pytest.fixture(scope="module")
def aab3():
    return standard_complex(fixtures.aab_power_presentation(3))


def test_standard_complex_shapes(aab3):
    torus = standard_complex(fixtures.torus_presentation())
    assert (torus.num_vertices, torus.num_edges(), torus.num_cells()) == (1, 2, 1)
    circle = standard_complex(parse_presentation("gens a"))
    assert (circle.num_vertices, circle.num_edges(), circle.num_cells()) == (1, 1, 0)
    assert aab3.boundary_length(0) == 9


def test_sides_at_counts(aab3):
    assert len(aab3.sides[0]) == 6
    assert len(aab3.sides[1]) == 3
    circle = standard_complex(parse_presentation("gens a"))
    assert circle.sides[0] == ()


def test_side_count_identity():
    for x in [
        standard_complex(fixtures.zzz_presentation()),
        standard_complex(fixtures.modify_presentation()),
        standard_complex(fixtures.surface_presentation(2, True)),
    ]:
        total = sum(map(len, x.sides))
        assert total == sum(x.boundary_length(c) for c in range(x.num_cells()))


def test_cell_period(aab3):
    assert aab3.periods[0] == (3, 3)
    torus = standard_complex(fixtures.torus_presentation())
    assert torus.periods[0] == (4, 1)
    a6 = standard_complex(parse_presentation("gens a / rel a^6"))
    assert a6.periods[0] == (1, 6)


def test_build_packet_invariants(aab3):
    pk = build_packet(aab3, 0).domain
    assert pk.num_edges() == 9
    assert pk.num_cells() == 3
    assert tuple(bdry[0] - 1 for bdry in pk.cells) == (0, 3, 6)  # each cell's offset
    for e in range(9):
        assert len(pk.sides[e]) == 3  # one side per packet cell
    torus = standard_complex(fixtures.torus_presentation())
    assert build_packet(torus, 0).domain.num_cells() == 1
    a2 = standard_complex(parse_presentation("gens a / rel a^2"))
    pk2 = build_packet(a2, 0).domain
    assert (pk2.num_edges(), pk2.num_cells()) == (2, 2)


def test_link_girth():
    torus = standard_complex(fixtures.torus_presentation())
    assert link_graph(torus, 0).essential_girth == 4
    modify = standard_complex(fixtures.modify_presentation())
    assert link_graph(modify, 0).essential_girth == 4
    circle = standard_complex(parse_presentation("gens a"))
    assert link_graph(circle, 0).essential_girth == INF
    # parallel corners form a length-2 cycle, which is not essential
    abab = standard_complex(parse_presentation("gens a b / rel a b a b"))
    lk = link_graph(abab, 0)
    assert lk.essential_girth == INF
    # a cell that backtracks puts a corner from a node to itself: girth 1
    assert link_graph(Complex2(1, [(0, 0)], [(1, -1)]), 0).essential_girth == 1


def test_pieces_aab3(aab3):
    table = compute_pieces(aab3)
    assert table.cell_max[0] == 1


def test_pieces_surface():
    x = standard_complex(fixtures.surface_presentation(2, True))
    table = compute_pieces(x)
    assert table.cell_max[0] == 1  # all pieces have length 1


def test_pieces_period_exclusion():
    # single relator abab: the period shift is excluded and the inverse
    # orientation shares no letters, so there are no pieces at all
    x = standard_complex(parse_presentation("gens a b / rel a b a b"))
    table = reference_compute_pieces(x)
    assert table.cell_max[0] == 0
    assert table.pairs == {}
    fast = compute_pieces(x)
    assert (fast.max_from, fast.cell_max) == (table.max_from, table.cell_max)


def test_piece_symmetry():
    x = standard_complex(fixtures.modify_presentation())
    table = reference_compute_pieces(x)
    for (occ_a, occ_b), length in table.pairs.items():
        assert table.pairs[(occ_b, occ_a)] == length
    fast = compute_pieces(x)
    assert (fast.max_from, fast.cell_max) == (table.max_from, table.cell_max)


def test_pieces_against_oracle():
    rng = random.Random(7)
    presentations = [
        fixtures.aab_power_presentation(3),
        fixtures.torus_presentation(),
        fixtures.surface_presentation(2, True),
        fixtures.surface_presentation(3, False),
        fixtures.modify_presentation(),
        fixtures.magnus_example_presentation(),
        fixtures.two_relator_block_presentation(),
    ]
    for pres in presentations:
        x = standard_complex(pres)
        table = compute_pieces(x)
        for c in range(x.num_cells()):
            m = x.boundary_length(c)
            starts = range(m) if m <= 12 else rng.sample(range(m), 6)
            for s in starts:
                assert table.max_from[c][s] == oracle_max_piece(x.cells, c, s), (
                    pres.generators, c, s,
                )


def _fixture_complexes() -> list:
    presentations = [
        fixtures.free_presentation(2),
        fixtures.aab_power_presentation(3),
        fixtures.aab_power_presentation(9),
        fixtures.torus_presentation(),
        fixtures.zzz_presentation(),
        fixtures.surface_presentation(2, True),
        fixtures.surface_presentation(3, False),
        fixtures.modify_presentation(),
        fixtures.two_relator_block_presentation(),
        fixtures.magnus_example_presentation(),
    ]
    maps = [fixtures.zzz_box_map(), *fixtures.two_squares_maps(),
            fixtures.double_cover_of_torus(), fixtures.reflected_square_map(),
            fixtures.ladder_start_map()]
    return [standard_complex(p) for p in presentations] + [m.domain for m in maps]


def _assert_pieces_match_reference(x):
    fast, ref = compute_pieces(x), reference_compute_pieces(x)
    assert (fast.max_from, fast.cell_max) == (ref.max_from, ref.cell_max), x.cells


def test_compute_pieces_memory_is_linear():
    # relators of coprime lengths have one cyclic diagonal of length
    # 300 * 301; building it as a word would take megabytes
    rng = random.Random(7)
    relators = []
    for length in (300, 301):
        u = random_reduced_word(rng, 2, length)
        while u.letters[0] == -u.letters[-1]:
            u = random_reduced_word(rng, 2, length)
        relators.append(u)
    x = standard_complex(Presentation(("a", "b"), tuple(relators)))
    tracemalloc.start()
    try:
        compute_pieces(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_compute_pieces_matches_reference_on_fixtures():
    for x in _fixture_complexes():
        _assert_pieces_match_reference(x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(relator_complexes(),
                 st.randoms(use_true_random=False).map(
                     lambda r: random_grid_subcomplex(r).domain)))
def test_compute_pieces_matches_reference(x):
    _assert_pieces_match_reference(x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(_fixture_complexes()), relator_complexes()))
def test_derived_data_match_plain_routines(x):
    periods = [period_exponent(Word(bdry)) for bdry in x.cells]
    assert x.periods == tuple((len(p), n) for p, n in periods)
    assert x.sides == tuple(
        tuple((c, i) for c, bdry in enumerate(x.cells) for i, d in enumerate(bdry)
              if abs(d) - 1 == e)
        for e in range(x.num_edges()))
    ref = reference_compute_pieces(x)
    assert (x.pieces.max_from, x.pieces.cell_max) == (ref.max_from, ref.cell_max)
    assert x.link_girths == tuple(link_graph(x, v).essential_girth
                                  for v in range(x.num_vertices))
    assert x.cycle_covers == tuple(
        min(_min_piece_cover(ref, c, s, len(bdry)) for s in range(len(bdry)))
        for c, bdry in enumerate(x.cells))
    for c, bdry in enumerate(x.cells):
        m = len(bdry)
        for s in range(m):
            covers = [min_piece_cover(x, c, s, ln) for ln in range(m + 1)]
            assert covers == [_min_piece_cover(ref, c, s, ln) for ln in range(m + 1)]
            assert covers == _fewest_pieces(ref.max_from[c], s)
    assert x.pieces is x.pieces  # kept, not recomputed


def _fewest_pieces(max_from: list[int], start: int) -> list[float]:
    """Per length 0..m: the fewest pieces that concatenate to the subpath
    read from start, over every decomposition, where a piece read from
    position i may have any length from 1 to max_from[i]; inf for none."""
    m = len(max_from)
    fewest = [0] + [INF] * m
    for ln in range(m):
        reach = min(max_from[(start + ln) % m], m - ln)
        for k in range(ln + 1, ln + reach + 1):
            fewest[k] = min(fewest[k], fewest[ln] + 1)
    return fewest


def test_min_piece_cover_examples():
    surf = standard_complex(fixtures.surface_presentation(2, True))
    assert min_piece_cover(surf, 0, 0, 8) == 8
    assert min_piece_cover(surf, 0, 0, 0) == 0
    aab3 = standard_complex(fixtures.aab_power_presentation(3))
    assert min_piece_cover(aab3, 0, 0, 2) == 2  # "aa" needs two pieces
    with pytest.raises(ComplexError):
        min_piece_cover(aab3, 0, 0, 10)


def test_min_piece_cover_monotone():
    x = standard_complex(fixtures.modify_presentation())
    for c in range(x.num_cells()):
        m = x.boundary_length(c)
        for s in range(m):
            covers = [min_piece_cover(x, c, s, ln) for ln in range(m + 1)]
            assert all(a <= b for a, b in zip(covers, covers[1:]))


def test_small_cancellation_reports():
    aab3 = standard_complex(fixtures.aab_power_presentation(3))
    rep = check_small_cancellation(aab3, 6, 3, Fraction(1, 6))
    assert rep.c_holds and rep.t_holds and rep.c_prime_holds
    modify = standard_complex(fixtures.modify_presentation())
    rep2 = check_small_cancellation(modify, 6, 4)
    assert rep2.c_holds and rep2.t_holds
    torus = standard_complex(fixtures.torus_presentation())
    rep3 = check_small_cancellation(torus, 6, 3)
    assert not rep3.c_holds  # the square is only C(4)
    assert torus.cycle_covers[0] == 4
    assert rep3.witnesses


_TORUS = standard_complex(fixtures.torus_presentation())

REFUSED = {
    "endpoint": (lambda: Complex2(1, [(0, 1)], []).validate(), "edge endpoint out of range"),
    "empty-boundary": (lambda: Complex2(1, [(0, 0)], [()]).validate(),
                       "cell 0 has empty boundary"),
    "bad-ref": (lambda: Complex2(1, [(0, 0)], [(2,)]).validate(), "cell 0 has bad edge ref"),
    "zero-ref": (lambda: Complex2(1, [(0, 0)], [(1, 0)]).validate(), "cell 0 has bad edge ref"),
    "no-chain": (lambda: Complex2(2, [(0, 1)], [(1, 1)]).validate(),
                 "cell 0 boundary does not chain at 0"),
    "backtrack": (lambda: Complex2(1, [(0, 0), (0, 0)], [(2, 1, -1)]).validate(),
                  "cell 0 attaching map backtracks at 1"),
    "unknown-vertex": (lambda: link_graph(_TORUS, 1), "unknown vertex"),
    "subpath": (lambda: min_piece_cover(_TORUS, 0, 4, 1), "invalid subpath"),
    "cell-below-0": (lambda: min_piece_cover(_TORUS, -1, 0, 4), "unknown cell"),
    "cell-past-last": (lambda: min_piece_cover(_TORUS, 1, 0, 1), "unknown cell"),
    "p-below-2": (lambda: check_small_cancellation(_TORUS, 1, 3), "need p >= 2 and q >= 3"),
    "alpha-0": (lambda: check_small_cancellation(_TORUS, 6, 3, Fraction(0)),
                "need alpha > 0, not 0"),
}


@pytest.mark.parametrize("build, message", REFUSED.values(), ids=list(REFUSED))
def test_hostile_complexes_are_refused(build, message):
    with pytest.raises(ComplexError) as refused:
        build()
    assert refused.type is ComplexError and str(refused.value) == message
