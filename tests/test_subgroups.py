import gc
import itertools

import pytest

from perifold import maps, subgroups
from perifold.complexes import Complex2, standard_complex
from perifold.criteria import CriterionError
from perifold.engine import EngineError
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

from conftest import GraphOracle
import corpus
import fixtures
from oracles import abelian_invariants
from reference import out_edges, reduce_map, reference_bouquet_map, word


def abelianized(p) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of the abelianized presentation."""
    return abelian_invariants(len(p.generators), [r.letters for r in p.relators])


@pytest.fixture(scope="module")
def free2():
    x = standard_complex(fixtures.free_presentation(2))
    return x, unit_weighting(x)


def test_decision_procedures_build_each_domain_from_its_words(monkeypatch):
    # each domain starts as the wedge point `Domain(w)` of the weighting's
    # complex, and no map is built, validated or copied into a domain: the
    # only maps built are those `to_map` and the fiber product return
    wedges, events = [], []

    def no_validate(self):
        raise AssertionError("CombMap.validate called")

    def logged(name, original):
        def call(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        return call

    def init(self, w):
        wedges.append(w.complex)
        domain_init(self, w)

    domain_init, map_init = maps.Domain.__init__, CombMap.__init__
    monkeypatch.setattr(CombMap, "validate", no_validate)
    monkeypatch.setattr(maps.Domain, "__init__", init)
    monkeypatch.setattr(CombMap, "__init__", logged("map", map_init))
    monkeypatch.setattr(maps.Domain, "to_map", logged("to_map", maps.Domain.to_map))
    monkeypatch.setattr(subgroups, "based_fiber_product",
                        logged("product", subgroups.based_fiber_product))
    x = standard_complex(fixtures.surface_presentation(2, True))
    w = unit_weighting(x)
    gens = [word([1, 2, -1, -2]), word([1, 1])]
    subgroup_presentation(x, w, gens)
    assert member(x, w, gens, word([1, 1, 1, 1]))
    intersect(x, w, gens, [word([1])])
    mx = standard_complex(fixtures.magnus_example_presentation())
    magnus_intersect(mx, {0, 1}, [word([1, 2])])
    assert wedges == [x] * 4 + [mx] * 2
    assert events == ["to_map", "map", "product", "map", "product", "map"]


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
    assert abelianized(extract_presentation(res.map)) == (0, ())


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
    assert abelianized(res.presentation)[0] == oracle.rank()


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
        assert abelianized(ab.presentation) == abelianized(ba.presentation)
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
    # the generators are checked too, also for a word trivial in the free
    # group, which is answered with no reduction
    aab3 = standard_complex(fixtures.aab_power_presentation(3))
    for u in (word([1]), word([1, -1])):
        with pytest.raises(MapError, match="word uses unknown generator"):
            member(aab3, unit_weighting(aab3), [word([7])], u)


_AAB3 = standard_complex(fixtures.aab_power_presentation(3))
_TORUS = standard_complex(fixtures.torus_presentation())
_CANCELS = word([7, -7])  # over a generator that (aab)^3 does not have


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("x, decide", [
    (_AAB3, lambda x, w, force: subgroup_presentation(x, w, [_CANCELS], force=force)),
    (_AAB3, lambda x, w, force: member(x, w, [_CANCELS], word([1]), force=force)),
    (_AAB3, lambda x, w, force: member(x, w, [], _CANCELS, force=force)),
    (_AAB3, lambda x, w, force: member_with_trace(x, w, [_CANCELS], word([1]), force=force)),
    (_AAB3, lambda x, w, force: member_with_trace(x, w, [], _CANCELS, force=force)),
    (_AAB3, lambda x, w, force: intersect(x, w, [_CANCELS], [word([1])], force=force)),
    (_AAB3, lambda x, w, force: intersect(x, w, [word([1])], [_CANCELS], force=force)),
    (_TORUS, lambda x, w, force: magnus_intersect(x, {0}, [word([5, -5])], force=force)),
], ids=["subgroup_presentation", "member-gens", "member-word", "member_with_trace-gens",
        "member_with_trace-word", "intersect-h", "intersect-k", "magnus_intersect"])
def test_a_cancelling_word_over_an_unknown_generator_is_refused(x, decide, force):
    # every letter is checked as given, before any word is reduced, so a
    # word that cancels is refused as one letter of an unknown generator
    # is, forced or not
    with pytest.raises(MapError, match="^word uses unknown generator$"):
        decide(x, unit_weighting(x), force)


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
    # a bigon and a free loop at the one vertex; generators: the bigon's
    # boundary, and the loop there and back, as closed based paths
    from perifold.engine import extract_presentation

    x = Complex2(1, [(0, 0), (0, 0), (0, 0)], [(1, 2)])
    x.validate()
    w = weighting_from_rows(x, [(1, 1)])
    m = reference_bouquet_map(x, [word([1, 2]), word([3, -3])])  # validated
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


def test_decision_procedures_leave_no_reference_cycles():
    # the decision procedures pause the cyclic collector, which is safe
    # because they make no reference cycles: with the collector off, every
    # answer of the corpus (step limits and first certificates of fresh
    # weightings included) and a refusal of each kind leave nothing for it
    # to find
    torus = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(torus)
    free2 = unit_weighting(standard_complex(fixtures.free_presentation(2)))
    refusals = (
        (lambda: subgroup_presentation(torus, w, [word([1])]), MissingCertificateError),
        (lambda: member_with_trace(torus, w, [], word([1]), step_limit=-1), EngineError),
        (lambda: intersect(torus, free2, [], []), CriterionError),
        (lambda: magnus_intersect(torus, {0, 1}, [word([1])]), ValueError),
    )
    gc.collect()
    gc.disable()
    try:
        corpus.build()
        for refused, error in refusals:
            with pytest.raises(error):
                refused()
        assert gc.collect() == 0
    finally:
        gc.enable()


_GENUS2 = standard_complex(fixtures.surface_presentation(2, True))
_W = unit_weighting(_GENUS2)
_MAGNUS = standard_complex(fixtures.magnus_example_presentation())
DECISIONS = {
    "subgroup_presentation": lambda: subgroup_presentation(_GENUS2, _W, [word([1, 2])]),
    "member": lambda: member(_GENUS2, _W, [word([1, 2])], word([1, 2, 1, 2])),
    "intersect": lambda: intersect(_GENUS2, _W, [word([1, 2])], [word([1, 2, 1, 2])]),
    "magnus_intersect": lambda: magnus_intersect(_MAGNUS, {0, 1}, [word([1, 2])]),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("decide", DECISIONS.values(), ids=list(DECISIONS))
def test_decision_procedures_pause_the_collector(monkeypatch, decide, enabled):
    # each reduction runs with the collector off, and the caller's state,
    # on or off, is what the call leaves
    seen = []

    def reduce_domain(*args):
        seen.append(gc.isenabled())
        return original(*args)

    original = subgroups.reduce_domain
    monkeypatch.setattr(subgroups, "reduce_domain", reduce_domain)
    if not enabled:
        gc.disable()
    try:
        decide()
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_a_refused_decision_restores_the_collector():
    torus = standard_complex(fixtures.torus_presentation())
    try:
        with pytest.raises(MissingCertificateError):
            intersect(torus, unit_weighting(torus), [word([1])], [word([2])])
        assert gc.isenabled()
    finally:
        gc.enable()
