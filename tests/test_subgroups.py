import itertools

import pytest

from perifold import maps
from perifold.complexes import Complex2, standard_complex
from perifold.criteria import CriterionError
from perifold.maps import CombMap, MapError
from perifold.subgroups import (
    MissingCertificateError,
    intersect,
    magnus_intersect,
    member,
    member_with_trace,
    subgroup_presentation,
)
from perifold.weights import path_perimeter, unit_weighting, weighting_from_rows
from perifold.words import free_reduce, parse_presentation

from conftest import GraphOracle, abelian_invariants
import fixtures
from reference import out_edges, reduce_map, word


@pytest.fixture(scope="module")
def free2():
    x = standard_complex(fixtures.free_presentation(2))
    return x, unit_weighting(x)


def test_decision_procedures_build_each_domain_from_its_words(monkeypatch):
    # no bouquet map is built, validated or copied into a domain: the only
    # map a `Domain` is made of on the way is the edgeless wedge point
    wrapped = []

    def no_validate(self):
        raise AssertionError("CombMap.validate called")

    def init(self, m, w):
        wrapped.append(m.domain.num_edges())
        original(self, m, w)

    original = maps.Domain.__init__
    monkeypatch.setattr(CombMap, "validate", no_validate)
    monkeypatch.setattr(maps.Domain, "__init__", init)
    x = standard_complex(fixtures.surface_presentation(2, True))
    w = unit_weighting(x)
    gens = [word([1, 2, -1, -2]), word([1, 1])]
    subgroup_presentation(x, w, gens)
    assert member(x, w, gens, word([1, 1, 1, 1]))
    intersect(x, w, gens, [word([1])])
    mx = standard_complex(fixtures.magnus_example_presentation())
    magnus_intersect(mx, {0, 1}, [word([1, 2])])
    assert len(wrapped) == 6 and set(wrapped) == {0}


def test_subgroup_presentation_free(free2):
    x, w = free2
    r = subgroup_presentation(x, w, [word([1, 1]), word([1, 2])])
    assert len(r.presentation.generators) == 2
    assert not r.presentation.relators
    assert not r.heuristic and r.certificate is not None
    r0 = subgroup_presentation(x, w, [])
    assert not r0.presentation.generators


def test_subgroup_presentation_certified_power():
    x = standard_complex(fixtures.aab_power_presentation(9))
    w = unit_weighting(x)
    r = subgroup_presentation(x, w, [word([1])])
    assert len(r.presentation.generators) == 1
    assert not r.presentation.relators  # a has infinite order


def test_subgroup_presentation_torsion_element():
    # the period generates a cyclic subgroup of order equal to the exponent;
    # the whole packet collapses to a single wrapped cell over the short circle
    x = standard_complex(fixtures.aab_power_presentation(9))
    w = unit_weighting(x)
    r = subgroup_presentation(x, w, [word([1, 1, 2])])
    assert len(r.presentation.generators) == 1
    assert [rr.letters for rr in r.presentation.relators] in ([(1,) * 9], [(-1,) * 9])
    kinds = [s.kind for s in r.trace.steps]
    assert kinds == ["attach-complete"]
    from perifold.weights import map_perimeter

    assert map_perimeter(w, r.final_map) == 18  # 45 - Wt(R)


def test_reduce_box_closes_to_sphere():
    from perifold.engine import extract_presentation
    from perifold.weights import map_perimeter

    box = fixtures.zzz_box_map()
    w = unit_weighting(box.codomain)
    res = reduce_map(box, w)
    assert [s.kind for s in res.trace.steps] == ["attach-complete"]
    assert map_perimeter(w, res.map) == 24
    assert res.map.domain.euler_characteristic() == 2
    assert abelian_invariants(extract_presentation(res.map)) == (0, ())


def test_member_examples(free2):
    x, w = free2
    gens = [word([1, 1]), word([1, 2])]
    assert not member(x, w, gens, word([1, 1, 2]))
    assert member(x, w, gens, word([1, 2]))
    assert member(x, w, gens, word([]))
    assert member(x, w, [word([1, 2, -1])], word([1, 2, -1]))
    assert not member(x, w, [word([1, 2, -1])], word([2]))


def test_member_closure_spot_check(free2):
    x, w = free2
    gens = [word([1, 1]), word([1, 2]), word([2, -1, 2])]
    for g in gens:
        assert member(x, w, gens, g)
    for g, h in itertools.product(gens, repeat=2):
        assert member(x, w, gens, free_reduce(word(g.letters + h.letters)))


def test_intersect_examples(free2):
    x, w = free2
    trivial = intersect(x, w, [word([1])], [word([2])])
    assert not trivial.presentation.generators
    cyclic = intersect(x, w, [word([1, 1])], [word([1, 1, 1])])
    assert len(cyclic.presentation.generators) == 1
    assert not cyclic.presentation.relators


def test_intersect_diagonal_is_identity(free2):
    x, w = free2
    gens = [word([1, 1]), word([2, 1])]
    res = intersect(x, w, gens, gens)
    oracle = GraphOracle(gens)
    assert len(res.presentation.generators) - len(res.presentation.relators) \
        == oracle.rank()
    assert abelian_invariants(res.presentation)[0] == oracle.rank()


def test_intersect_symmetric(free2, rng):
    x, w = free2
    for _ in range(8):
        gens_h = [free_reduce(word([rng.choice([1, -1, 2, -2])
                                    for _ in range(rng.randint(1, 4))]))
                  for _ in range(rng.randint(1, 2))]
        gens_k = [free_reduce(word([rng.choice([1, -1, 2, -2])
                                    for _ in range(rng.randint(1, 4))]))
                  for _ in range(rng.randint(1, 2))]
        gens_h = [g for g in gens_h if g.letters]
        gens_k = [g for g in gens_k if g.letters]
        if not gens_h or not gens_k:
            continue
        ab = intersect(x, w, gens_h, gens_k)
        ba = intersect(x, w, gens_k, gens_h)
        assert abelian_invariants(ab.presentation) == abelian_invariants(ba.presentation)
        chi = lambda p: len(p.relators) - len(p.generators)  # noqa: E731
        assert chi(ab.presentation) == chi(ba.presentation)


def test_certificate_gate_and_force():
    x = standard_complex(
        parse_presentation("gens a b t / rel a t a^-1 t^-1 / rel b t b^-1 t^-1")
    )
    w = unit_weighting(x)
    with pytest.raises(MissingCertificateError):
        subgroup_presentation(x, w, [word([1])])
    forced = subgroup_presentation(x, w, [word([1])], force=True)
    assert forced.heuristic and forced.certificate is None
    with pytest.raises(MissingCertificateError):
        member(x, w, [word([1])], word([2]))
    assert member(x, w, [word([1])], word([1]), force=True)


def test_member_refuses_a_word_over_an_unknown_generator():
    genus2 = standard_complex(fixtures.surface_presentation(2, True))
    w = unit_weighting(genus2)
    with pytest.raises(MapError, match="word uses unknown generator"):
        member(genus2, w, [], word([9]))


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("decide", [
    lambda x, w, force: subgroup_presentation(x, w, [word([1, 2])], force=force),
    lambda x, w, force: member(x, w, [word([1, 2])], word([3]), force=force),
    lambda x, w, force: member_with_trace(x, w, [word([1, 2])], word([3]), force=force),
    lambda x, w, force: intersect(x, w, [word([3])], [word([4])], force=force),
], ids=["subgroup_presentation", "member", "member_with_trace", "intersect"])
def test_weighting_of_another_complex_is_refused(decide, force):
    # every decision procedure that takes a weighting refuses one of
    # another complex before any certificate is looked for, forced or not
    genus2 = standard_complex(fixtures.surface_presentation(2, True))
    w = unit_weighting(standard_complex(fixtures.torus_presentation()))
    with pytest.raises(CriterionError, match="weighting belongs to a different complex"):
        decide(genus2, w, force)


def test_magnus_intersect_pipeline():
    x = standard_complex(fixtures.magnus_example_presentation())
    res = magnus_intersect(x, {0, 1}, [word([1, 2])])
    assert len(res.presentation.generators) == 1
    assert not res.presentation.relators
    # the image of the intersection generator reads ab around the base
    final = res.final_map
    outs = out_edges(final)
    path = [1, 2]
    cur = final.basepoint
    for letter in path:
        nxt = outs[cur].get(letter)
        assert nxt is not None
        cur = final.domain.head(nxt)
    assert cur == final.basepoint
    # a alone does not close up in the intersection complex
    assert outs[final.basepoint].get(1) is None or \
        final.domain.head(outs[final.basepoint][1]) != final.basepoint


def test_magnus_intersect_edge_cases():
    x = standard_complex(fixtures.magnus_example_presentation())
    empty = magnus_intersect(x, set(), [word([1, 2])])
    assert not empty.presentation.generators
    inside = magnus_intersect(x, {0, 1}, [word([1]), word([2])])
    assert len(inside.presentation.generators) == 2  # H <= pi_1 M: H itself
    rank2 = magnus_intersect(x, {0, 1}, [word([1, 2]), word([1, 1])])
    assert len(rank2.presentation.generators) == 2
    assert not rank2.presentation.relators
    with pytest.raises(ValueError):
        magnus_intersect(x, {0, 1, 2, 3}, [word([1])])


# On the torus with unit weights only weak C(4)-T(4) holds, which gates
# `member` and `magnus_intersect`, but both run the strict engine, which
# stops short of these answers.
@pytest.mark.xfail(strict=True, reason="a weak certificate gates the strict engine")
def test_member_finds_a_trivial_word_on_the_torus():
    x = standard_complex(fixtures.torus_presentation())
    assert member(x, unit_weighting(x), [], word([1, 1, 2, 2, -1, -1, -2, -2]))


@pytest.mark.xfail(strict=True, reason="a weak certificate gates the strict engine")
def test_magnus_intersect_finds_a_fourth_power_on_the_torus():
    # H = <b a^-2 b^-1 a^-2> = <a^-4> in Z^2 meets <a> in <a^4>, which is Z
    x = standard_complex(fixtures.torus_presentation())
    res = magnus_intersect(x, {0}, [word([2, -1, -1, -2, -1, -1])])
    assert (len(res.presentation.generators), res.presentation.relators) == (1, ())


def test_relator_bound_on_simple_cycle_complex():
    # bigon attached along a simple cycle plus a free loop at the basepoint
    from perifold.engine import extract_presentation

    x = Complex2(2, [(0, 1), (1, 0), (0, 0)], [(1, 2)])
    x.validate()
    w = weighting_from_rows(x, [(1, 1)])
    # generators: the bigon cycle and the loop, as closed based paths
    dom = Complex2(3, [(0, 1), (1, 0), (0, 2), (2, 0)], [])
    m = CombMap(dom, x, [0, 1, 0], [1, 2, 3, -3], [], 0)
    m.validate()
    res = reduce_map(m, w)
    pres = extract_presentation(res.map)
    bound = sum(path_perimeter(w, g) for g in (word([1, 2]), word([3, -3])))
    assert len(pres.relators) <= bound


def test_free_group_against_oracle_small(free2):
    x, w = free2
    cases = [
        [word([1])],
        [word([1, 1]), word([2])],
        [word([1, 2]), word([2, 1])],
        [word([1, 2, -1])],
        [word([1, 1]), word([1, 2]), word([2, 2])],
    ]
    queries = [word(list(ls)) for ls in
               [(1,), (2,), (1, 2), (2, 1), (1, 1), (1, 2, -1), (1, 2, 2, 1)]]
    for gens in cases:
        oracle = GraphOracle(gens)
        r = subgroup_presentation(x, w, gens)
        assert len(r.presentation.generators) == oracle.rank()
        for u in queries:
            assert member(x, w, gens, u) == oracle.member(u), (gens, u)
