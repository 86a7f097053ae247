import random

import pytest
from hypothesis import given, settings, strategies as st

from perifold.complexes import Complex2, standard_complex
from perifold.engine import reduce_domain
from perifold.maps import (CombMap, Domain, MapError, based_fiber_product, end_stars, find_fold,
                           is_packed)
from perifold.weights import WeightError, map_perimeter, unit_weighting
from perifold.words import free_reduce, parse_presentation

from conftest import GraphOracle, random_grid_subcomplex
import fixtures
import reference
from reference import (
    apply_fold,
    build_packet,
    canonical_form,
    domain_of,
    fiber_product,
    fold_to_immersion,
    identity_map,
    isomorphic_maps,
    reduce_map,
    reference_augment_with_cells,
    reference_based_product,
    reference_bouquet_map,
    replace,
    restrict_to_component,
    word,
)


@pytest.fixture(scope="module")
def free2():
    return standard_complex(fixtures.free_presentation(2))


def test_bouquet_shapes(free2):
    w = unit_weighting(free2)
    m = Domain.bouquet(w, [word([1, 2])]).to_map()
    assert (m.domain.num_vertices, m.domain.num_edges()) == (2, 2)
    m2 = Domain.bouquet(w, [], whisker=word([1])).to_map()
    assert (m2.domain.num_vertices, m2.domain.num_edges()) == (2, 1)
    assert m2.domain.edges[-1] == (0, m2.domain.num_vertices - 1)  # the whisker's tip
    m3 = Domain.bouquet(w, [word([1]), word([2])], whisker=word([1, 2])).to_map()
    assert m3.domain.num_edges() == 4
    # each word is glued reduced: an empty word glues no arc, and neither
    # does a word or a whisker that cancels
    for words, whisker in (([word([])], None), ([word([1, -1])], None), ([], word([2, -2])),
                           ([word([]), word([2, 1, -1, -2])], word([]))):
        dom = Domain.bouquet(w, words, whisker)
        assert (dom.num_vertices, dom.num_edges, dom.perimeter) == (1, 0, 0)
    m4 = Domain.bouquet(w, [word([1, -1]), word([2, 1, -1])], whisker=word([1, 2, -2])).to_map()
    assert (m4.domain.num_vertices, m4.domain.edges) == (2, [(0, 0), (0, 1)])
    assert m4.edge_image == [2, 1]
    # every letter is checked as given, before any word is reduced
    for words in ([word([3])], [word([3, -3])], [word([1]), word([1, 3, -3, -1])]):
        with pytest.raises(MapError, match="^word uses unknown generator$"):
            Domain.bouquet(w, words)
    for whisker in (word([3]), word([1, -3]), word([3, -3])):
        with pytest.raises(MapError, match="^word uses unknown generator$"):
            Domain.bouquet(w, [word([1])], whisker=whisker)


def test_domain_refuses_a_codomain_with_several_vertices(monkeypatch):
    # the wedge point `Domain(w)` is the one refusal, reached directly and
    # through `bouquet` before it reads a word or glues an arc
    def no_arc(*args):
        raise AssertionError("an arc was glued")

    monkeypatch.setattr(Domain, "add_arc", no_arc)
    phi, _psi = fixtures.two_squares_maps()  # a 6-vertex codomain
    for x in (phi.codomain, Complex2(2, [(0, 1)], [])):
        w = unit_weighting(x)
        with pytest.raises(MapError, match="^Domain expects a one-vertex codomain$"):
            Domain(w)
        for words in ([word([1])], [word([])]):
            with pytest.raises(MapError, match="^Domain expects a one-vertex codomain$"):
                Domain.bouquet(w, words, whisker=word([1]))


def test_domain_refuses_a_weighting_of_another_complex():
    torus = standard_complex(fixtures.torus_presentation())
    genus2 = standard_complex(fixtures.surface_presentation(2, True))
    for x, other in ((genus2, torus), (torus, genus2)):
        m = reference_bouquet_map(x, [word([1, 2])])
        with pytest.raises(WeightError, match="weighting belongs to a different complex"):
            domain_of(m, unit_weighting(other))
        with pytest.raises(WeightError, match="weighting belongs to a different complex"):
            reduce_map(m, unit_weighting(other))


def test_domain_of_refuses_a_map_not_based_at_vertex_0(monkeypatch):
    # a live domain's basepoint is vertex 0, so the map-level entries
    # refuse a map based elsewhere before they glue an arc
    def no_arc(*args):
        raise AssertionError("an arc was glued")

    x = standard_complex(fixtures.torus_presentation())
    m = replace(reference_bouquet_map(x, [word([1, 2])]), basepoint=1)
    m.validate()
    w = unit_weighting(x)
    monkeypatch.setattr(Domain, "add_arc", no_arc)
    for entry in (lambda: domain_of(m, w), lambda: reduce_map(m, w),
                  lambda: fold_to_immersion(m)):
        with pytest.raises(MapError, match="^a live domain's basepoint is vertex 0$"):
            entry()


def test_domain_of_writes_each_cell_from_position_0():
    # a cell over its target at offset 3, reflected, comes out of the live
    # domain as its rewritten cycle over the target from position 0
    m = fixtures.reflected_square_map()
    w = unit_weighting(m.codomain)
    built = domain_of(m, w).to_map()
    built.validate()
    assert built.domain.cells == [m.rewritten_cycle(0)] != m.domain.cells
    assert (built.cell_image, built.basepoint) == ([(0, 0, False)], 0)
    assert replace(built, domain=m.domain, cell_image=m.cell_image) == m
    assert map_perimeter(w, built) == map_perimeter(w, m)


def test_is_1_immersion(free2):
    assert find_fold(reference_bouquet_map(free2, [word([1]), word([1])])) is not None
    assert find_fold(reference_bouquet_map(free2, [word([1, 2])])) is None
    assert find_fold(identity_map(free2)) is None


def test_single_fold(free2):
    m = reference_bouquet_map(free2, [word([1]), word([1, 2])])
    res = apply_fold(m)
    assert res.map.domain.num_vertices == 1
    assert res.map.domain.num_edges() == 2
    assert find_fold(res.map) is None
    with pytest.raises(MapError):
        apply_fold(res.map)


def test_fold_backtrack_word(free2):
    # folding identifies the two edges of the backtrack, leaving an arc
    m = reference_bouquet_map(free2, [word([1, -1])])
    res = fold_to_immersion(m)
    assert res.map.domain.num_edges() == 1
    assert res.map.domain.num_vertices == 2
    assert res.map.domain.num_edges() - res.map.domain.num_vertices + 1 == 0


def test_fold_to_immersion_matches_oracle(free2, rng):
    for _ in range(40):
        gens = [
            [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if g]
        from perifold.words import free_reduce

        gens_w = [free_reduce(word(g)) for g in gens]
        gens_w = [g for g in gens_w if g.letters]
        if not gens_w:
            continue
        res = fold_to_immersion(reference_bouquet_map(free2, gens_w))
        oracle = GraphOracle(gens_w)
        assert res.map.domain.num_vertices == len(oracle.adj)
        assert res.map.domain.num_edges() - res.map.domain.num_vertices + 1 == oracle.rank()


def test_fold_confluence(free2, rng):
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            from perifold.words import free_reduce

            w = free_reduce(word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]))
            if w.letters:
                gens.append(w)
        if not gens:
            continue
        m = reference_bouquet_map(free2, gens)
        first = fold_to_immersion(m).map
        # alternative order: pick a random available fold each time
        cur = m
        while True:
            folds = []
            for v, star in enumerate(end_stars(cur)):
                for ends in star.values():
                    ends = sorted(ends)
                    folds += [(v, d1, d2) for d1, d2 in zip(ends, ends[1:])]
            if not folds:
                break
            cur = apply_fold(cur, rng.choice(folds)).map
        dom = domain_of(cur, unit_weighting(free2))
        dom.remove_redundant()
        assert isomorphic_maps(first, dom.to_map())


def test_remove_redundant():
    x = standard_complex(fixtures.torus_presentation())
    # duplicate the square on the same circle with the same image
    m = build_packet(x, 0)
    dup = type(m)(
        type(m.domain)(
            m.domain.num_vertices,
            list(m.domain.edges),
            list(m.domain.cells) + [m.domain.cells[0]],
        ),
        m.codomain,
        list(m.vertex_image),
        list(m.edge_image),
        list(m.cell_image) + [m.cell_image[0]],
        m.basepoint,
    )
    w = unit_weighting(x)
    before = map_perimeter(w, dup)
    dom = domain_of(dup, w)
    assert dom.remove_redundant() == 1
    cleaned = dom.to_map()
    assert map_perimeter(w, cleaned) == before
    again = domain_of(cleaned, w)
    assert again.remove_redundant() == 0 and again.to_map() == cleaned


def test_sphere_cells_not_redundant():
    # two of the three packet cells of (aab)^3 have distinct rotations
    x = standard_complex(fixtures.aab_power_presentation(3))
    m = build_packet(x, 0)
    dom = domain_of(m, unit_weighting(x))
    assert dom.remove_redundant() == 0
    assert dom.to_map().domain.num_cells() == 3


def test_packedness_and_repair():
    x = standard_complex(fixtures.aab_power_presentation(3))
    graph = reference_bouquet_map(x, [word([1, 1, 2])])
    assert is_packed(graph)[0]  # no 2-cells at all
    m = build_packet(x, 0)
    lone = type(m)(
        type(m.domain)(m.domain.num_vertices, list(m.domain.edges),
                       [m.domain.cells[0]]),
        m.codomain, list(m.vertex_image), list(m.edge_image),
        [m.cell_image[0]], m.basepoint,
    )
    ok, witness = is_packed(lone)
    assert not ok and witness is not None
    w = unit_weighting(x)
    dom = domain_of(lone, w)
    assert dom.repair() == 2
    repaired = dom.to_map()
    assert is_packed(repaired)[0]
    assert map_perimeter(w, repaired) <= map_perimeter(w, lone)
    dom = domain_of(m, w)
    assert dom.repair() == 0 and is_packed(dom.to_map())[0]


def test_fiber_product_cyclic_covers(free2):
    circle = standard_complex(parse_presentation("gens a"))
    a2 = fold_to_immersion(reference_bouquet_map(circle, [word([1, 1])])).map
    a3 = fold_to_immersion(reference_bouquet_map(circle, [word([1, 1, 1])])).map
    fp = fiber_product(a2, a3)
    based = restrict_to_component(fp.to_codomain, fp.based_vertex)
    assert based.domain.num_edges() == 6
    assert based.domain.num_vertices == 6
    w = unit_weighting(circle)
    assert based_fiber_product(domain_of(a2, w), domain_of(a3, w)) == based


def test_fiber_product_diagonal():
    x = standard_complex(parse_presentation("gens a / rel a^2"))
    m = build_packet(x, 0)
    fp = fiber_product(m, m)
    assert fp.product.num_cells() == 4  # one cell per compatible pair
    based = restrict_to_component(fp.to_codomain, fp.based_vertex)
    assert isomorphic_maps(based, m)
    dom = domain_of(m, unit_weighting(x))
    assert based_fiber_product(dom, dom) == based


def test_fiber_product_disjoint_images(free2):
    a = reference_bouquet_map(free2, [word([1])])
    b = reference_bouquet_map(free2, [word([2])])
    fp = fiber_product(a, b)
    assert fp.product.num_edges() == 0
    assert fp.product.num_vertices == 1


def test_fiber_product_projections_commute(rng):
    for _ in range(10):
        a = random_grid_subcomplex(rng)
        b = random_grid_subcomplex(rng)
        a.basepoint = 0
        b.basepoint = 0
        if a.vertex_image[0] != b.vertex_image[0]:
            continue
        fp = fiber_product(a, b)
        for e in range(fp.product.num_edges()):
            via_a = a.image_of(fp.to_a.edge_image[e])
            via_b = b.image_of(fp.to_b.edge_image[e])
            assert via_a == via_b == fp.to_codomain.edge_image[e]
        for c in range(fp.product.num_cells()):
            assert a.cell_image[fp.to_a.cell_image[c][0]][0] == \
                fp.to_codomain.cell_image[c][0]


_PRODUCT_COMPLEXES = [
    (standard_complex(fixtures.torus_presentation()), unit_weighting),
    (standard_complex(fixtures.zzz_presentation()), fixtures.zzz_weighting),
    (standard_complex(fixtures.surface_presentation(2, True)), unit_weighting),
    (standard_complex(fixtures.aab_power_presentation(3)), unit_weighting),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_based_fiber_product_matches_all_pairs_reference(data):
    x, w_of = data.draw(st.sampled_from(_PRODUCT_COMPLEXES))
    w = w_of(x)
    grid = _PRODUCT_COMPLEXES[1][0]  # the codomain of `random_grid_subcomplex`
    letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])

    def bouquet():
        gens = [g for g in (free_reduce(word(ls)) for ls in data.draw(
            st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3)))
            if g.letters]
        return reference_bouquet_map(x, gens)

    def side():
        """A domain and the map the reference reads for it."""
        kinds = ["raw", "reduced", "augmented", "live"] + (["grid"] if x == grid else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "grid":  # many cells over several vertices
            m = random_grid_subcomplex(random.Random(data.draw(st.integers(0, 2**16))))
            return domain_of(m, w), m
        m = bouquet()
        if kind == "live":  # as in `intersect`: dropped edges, merged roots, deleted cells
            dom = domain_of(m, w)
            reduce_domain(dom)
            dom.augment()
            reduce_domain(dom)
            return dom, dom.to_map()  # its ids are not the refs of this map
        if kind != "raw":
            m = reduce_map(m, w).map
        if kind == "augmented":
            m = reference_augment_with_cells(m)  # cells glued at one vertex: no immersion
        return domain_of(m, w), m

    other = data.draw(st.sampled_from(["side", "same", "inclusion"]))
    if other == "side":
        (a, ma), (b, mb) = side(), side()
    elif other == "same":  # many cell pairs over each target cell
        (a, ma) = (b, mb) = side()
    else:  # the magnus_intersect case: a one-vertex subgraph inclusion
        kept = sorted(data.draw(st.sets(st.sampled_from(range(x.num_edges())))))
        ma = reduce_map(bouquet(), w).map
        mb = CombMap(Complex2(1, [(0, 0)] * len(kept), []), x, [0],
                     [e + 1 for e in kept], [], 0)
        a, b = domain_of(ma, w), domain_of(mb, w)
    if data.draw(st.booleans()):
        (a, ma), (b, mb) = (b, mb), (a, ma)
    before = a.to_map(), b.to_map()
    assert based_fiber_product(a, b) == reference_based_product(ma, mb)  # every field
    assert (a.to_map(), b.to_map()) == before


def test_based_fiber_product_cell_order():
    # the one cell of a meets b's two cells at two partner vertices, which
    # list them in the opposite order to their numbering
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    a = reduce_map(reference_bouquet_map(x, [word([1, 2, -1])]), w).map
    b = reduce_map(reference_bouquet_map(x, [word([1, -2, -1, -2])]), w).map
    want = reference_based_product(a, b)
    assert want.domain.num_cells() == 2
    assert based_fiber_product(domain_of(a, w), domain_of(b, w)) == want


def test_based_fiber_product_errors(free2):
    torus = standard_complex(fixtures.torus_presentation())
    with pytest.raises(MapError, match="common codomain"):
        based_fiber_product(Domain.bouquet(unit_weighting(free2), [word([1])]),
                            Domain.bouquet(unit_weighting(torus), [word([1])]))


def test_reflected_cell_roundtrip():
    m = fixtures.reflected_square_map()
    m.validate()
    cyc = m.rewritten_cycle(0)
    x = m.codomain
    for q, d in enumerate(cyc):
        assert m.image_of(d) == x.cells[0][q]


def test_canonical_form_requires_immersion(free2):
    m = reference_bouquet_map(free2, [word([1]), word([1])])
    with pytest.raises(MapError):
        canonical_form(m)


def test_oracles_do_not_build_a_domain(free2, monkeypatch):
    # `isomorphic_maps` (the fold-order oracle) and the fixture maps read
    # the map's end stars, not the live `Domain` whose folds they check
    m = fold_to_immersion(reference_bouquet_map(free2, [word([1, 1]), word([1, 2])])).map

    def refuse(*args):
        raise AssertionError("an oracle built a Domain")

    monkeypatch.setattr("perifold.maps.Domain", refuse)
    monkeypatch.setattr(reference, "Domain", refuse)
    assert isomorphic_maps(m, m)
    torus = standard_complex(fixtures.torus_presentation())
    assert isomorphic_maps(build_packet(torus, 0), build_packet(torus, 0))
    assert isomorphic_maps(identity_map(free2), identity_map(free2))


_TORUS = standard_complex(fixtures.torus_presentation())
_SEGMENT = Complex2(2, [(0, 1)], [])
_EIGHT = Complex2(1, [(0, 0), (0, 0)], [(1, 2, -1, -2, 1, 2, -1, -2)])  # the square twice


def _onto_torus(domain=_TORUS, vertex_image=(0,), edge_image=(1, 2),
                cell_image=((0, 0, False),), basepoint=0) -> CombMap:
    return CombMap(domain, _TORUS, list(vertex_image), list(edge_image), list(cell_image),
                   basepoint)


REFUSED = {
    "vertex-images": (_onto_torus(vertex_image=(0, 0)), "vertex image size mismatch"),
    "edge-images": (_onto_torus(edge_image=(1,)), "edge image size mismatch"),
    "cell-images": (_onto_torus(cell_image=()), "cell image size mismatch"),
    "basepoint": (_onto_torus(basepoint=1), "basepoint out of range"),
    "edge-image-range": (_onto_torus(edge_image=(3, 2)), "edge 0 image out of range"),
    "edge-endpoints": (CombMap(_SEGMENT, _SEGMENT, [1, 0], [1], [], 0),
                       "edge 0 image endpoint mismatch"),
    "cell-image-range": (_onto_torus(cell_image=((1, 0, False),)), "cell 0 image out of range"),
    "cell-length": (_onto_torus(domain=_EIGHT), "cell 0 boundary length mismatch"),
    "cell-offset": (_onto_torus(cell_image=((0, 1, False),)),
                    "cell 0 boundary incompatible at 0"),
}


@pytest.mark.parametrize("m, message", REFUSED.values(), ids=list(REFUSED))
def test_validate_refuses_a_map_that_does_not_map(m, message):
    # `validate` checks a hand-built map before it is wrapped as `domain_of(m, w)`
    _onto_torus().validate()
    with pytest.raises(MapError) as refused:
        m.validate()
    assert refused.type is MapError and str(refused.value) == message
