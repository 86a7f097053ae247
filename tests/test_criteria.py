import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from perifold import complexes, criteria
from perifold.complexes import Complex2, compute_pieces, standard_complex
from perifold.criteria import (
    CriterionError,
    check_equalweights,
    check_few_occurrences,
    check_min_generator,
    check_one_relator_torsion,
    check_sc_weight,
    find_certificate,
    magnus_weighting,
    power_theorem,
)
from perifold.subgroups import intersect, member, subgroup_presentation
from perifold.weights import Weighting, cell_weight, unit_weighting
from perifold.words import (Presentation, Word, cyclic_reduce, is_cyclically_reduced,
                            parse_presentation)

from conftest import relator_complexes, side_weightings
import fixtures
from reference import reference_check_one_relator_torsion, reference_check_sc_weight, word


def test_one_relator_torsion():
    x = standard_complex(fixtures.aab_power_presentation(3))
    v = check_one_relator_torsion(unit_weighting(x))
    assert v.holds and v.conclusion == "coherent"
    x2 = standard_complex(parse_presentation("gens a b / rel ( a a b b )^2"))
    v2 = check_one_relator_torsion(unit_weighting(x2))
    assert v2.holds  # max P(S) = 12 <= 16
    x3 = standard_complex(parse_presentation("gens a b / rel a b"))
    v3 = check_one_relator_torsion(unit_weighting(x3))
    assert not v3.applicable and not v3.holds
    x4 = standard_complex(fixtures.zzz_presentation())
    assert not check_one_relator_torsion(unit_weighting(x4)).applicable


def test_equalweights():
    v = check_equalweights(word([1, 1, 2]), 2)
    assert v.holds and v.conclusion == "coherent"
    v2 = check_equalweights(word([1, 1, 2]), 9)
    assert v2.holds and v2.conclusion == "both"
    v3 = check_equalweights(word([1, 1, 2]), 1)
    assert not v3.holds and v3.conclusion == "none"


def test_equalweights_cross_validation():
    # whenever the unit bound holds, the weighted one-relator check on the
    # standard complex of W^n must hold as well (same underlying estimate)
    alphabet = [1, -1, 2, -2]
    count = 0
    for length in range(2, 6):
        for letters in itertools.product(alphabet, repeat=length):
            w = Word(letters)
            if not is_cyclically_reduced(w):
                continue
            n = max(2, length - 1)
            if not check_equalweights(w, n).holds:
                continue
            from perifold.words import period_exponent

            if period_exponent(w)[1] > 1:
                continue  # keep W itself the period
            pres = Presentation(("a", "b"), (Word(letters * n),))
            x = standard_complex(pres)
            v = check_one_relator_torsion(unit_weighting(x))
            assert v.holds, (letters, n)
            count += 1
    assert count > 200


def test_min_generator():
    w = parse_presentation(
        "gens a b c d e / rel a b c d e a a b c d e b a b c d e c a b c d e d a b c d e e"
    ).relators[0]
    v = check_min_generator(w, 6)
    assert v.holds  # every generator occurs 6 times
    assert not check_min_generator(w, 5).holds
    v2 = check_min_generator(word([1, 2, 2, 2, 2, 2]), 2)
    assert v2.holds  # generator a occurs once
    assert "weighting" in v2.extras
    assert cell_weight(v2.extras["weighting"], 0) == 2  # n copies of one side
    v3 = check_min_generator(word([1, 2]), 1)
    assert not v3.applicable


def test_sc_weight_modify():
    x = standard_complex(fixtures.modify_presentation())
    w = fixtures.modify_weighting(x)
    v = check_sc_weight(w, "C4T4")
    assert v.holds and v.conclusion == "coherent"
    # the C6T3 route needs three pieces and fails on this weighting
    v2 = check_sc_weight(w, "C6T3")
    assert v2.applicable and not v2.holds


def test_sc_weight_two_relator_blocks():
    x = standard_complex(fixtures.two_relator_block_presentation())
    unit = unit_weighting(x)
    v = check_sc_weight(unit, "C4T4")
    assert v.applicable and not v.holds
    worst = v.extras["worst"]
    assert worst["perimeter"] == 48 and worst["bound"] == 32
    letters = [x.cells[worst["cell"]][(worst["start"] + t) % 32]
               for t in range(worst["length"])]
    assert letters == [1, 1, 1, 2, 2, 2]
    # U's pieces are single letters, V's longest is iii; weights (1, 3) meet
    # the two-piece inequality with equality, so only the weak form holds
    assert compute_pieces(x).cell_max == [1, 3]
    w = fixtures.two_relator_block_weighting(x, 1, 3)
    weak = check_sc_weight(w, "C4T4")
    assert weak.holds and weak.conclusion == "coherent"
    assert weak.extras["worst"]["perimeter"] == weak.extras["worst"]["bound"]
    strict = check_sc_weight(w, "C4T4", strict=True)
    assert strict.applicable and not strict.holds


def test_sc_weight_surfaces():
    expectations = [
        (2, False, True, False),
        (3, False, True, True),
        (4, False, True, True),
        (1, True, True, False),
        (2, True, True, True),
    ]
    for genus, orientable, weak_ok, strict_ok in expectations:
        x = standard_complex(fixtures.surface_presentation(genus, orientable))
        w = unit_weighting(x)
        weak = check_sc_weight(w, "C4T4", strict=False)
        strict = check_sc_weight(w, "C4T4", strict=True)
        assert weak.holds == weak_ok, (genus, orientable)
        assert strict.holds == strict_ok, (genus, orientable)
        if strict.holds:
            assert weak.holds  # strictness implication


def test_sc_weight_inapplicable_carries_witness():
    x = standard_complex(fixtures.torus_presentation())
    v = check_sc_weight(unit_weighting(x), "C6T3")
    assert not v.applicable and v.witnesses  # the square is not C(6)


def test_few_occurrences():
    surf = fixtures.surface_presentation(2, True)
    v = check_few_occurrences(surf, standard_complex(surf))
    assert v.holds and v.extras["n_max"] == 7
    free_like = parse_presentation("gens a b c / rel a b c")
    assert check_few_occurrences(free_like, standard_complex(free_like)).holds
    # single relator abab: the period shift is excluded, so there are no
    # pieces and the metric condition holds for every n (virtually free)
    abab = parse_presentation("gens a b / rel a b a b")
    v2 = check_few_occurrences(abab, standard_complex(abab))
    assert v2.holds and v2.extras["n_max"] == float("inf")
    dense = parse_presentation("gens a b / rel a b a^-1 b a b^-1")
    assert not check_few_occurrences(dense, standard_complex(dense)).holds


def test_few_occurrences_refuses_another_presentations_complex():
    # occurrences read from dense and pieces from the free-like complex
    # would answer holds=True, where dense's own complex fails
    dense = parse_presentation("gens a b / rel a b a^-1 b a b^-1")
    free_like = parse_presentation("gens a b c / rel a b c")
    with pytest.raises(CriterionError):
        check_few_occurrences(dense, standard_complex(free_like))


def test_power_theorem_values():
    n, _ = power_theorem([word([1]), word([1, 1, 2, -1, -2]),
                          word([2]), word([2, 2, 1, -2, -1])])
    assert n == 360
    n2, _ = power_theorem([word([1, 2]), word([1, -2])])
    assert n2 == 24
    with pytest.raises(CriterionError):
        power_theorem([word([1, 2]), word([2, 1])])  # conjugate pair
    with pytest.raises(CriterionError):
        power_theorem([word([1, 2, 1, 2])])  # proper power


def test_power_theorem_verdicts_and_covariance():
    words_ = [word([1, 2]), word([1, -2])]
    n, v = power_theorem(words_, [24, 24])
    assert v.holds and v.conclusion == "coherent"
    _, v2 = power_theorem(words_, [25, 25])
    assert v2.conclusion == "both"
    _, v3 = power_theorem(words_, [23, 24])
    assert not v3.holds
    # monotone in each length and scale-covariant
    n_small, _ = power_theorem([word([1, 2]), word([1, -2])])
    n_big, _ = power_theorem([word([1, 1, 2, 2]), word([1, 1, -2, -2])])
    assert n_big == 2 * n_small
    n_longer, _ = power_theorem([word([1, 2, 1]), word([1, -2])])
    assert n_longer >= n_small


def test_magnus_weighting():
    x = standard_complex(fixtures.magnus_example_presentation())
    w, v = magnus_weighting(x, {0, 1})
    assert v.holds and w is not None
    assert cell_weight(w, 0) == 6
    _, v2 = magnus_weighting(x, {0, 1, 2, 3})
    assert not v2.holds  # every side would get weight zero
    xp = standard_complex(parse_presentation("gens a b / rel ( a b b )^3"))
    wp, vp = magnus_weighting(xp, {1})
    assert vp.holds and cell_weight(wp, 0) == 3  # n*k with n=3, k=1
    # a complex of two vertices is no one-relator complex: not applicable
    wt, vt = magnus_weighting(Complex2(2, [(0, 1)], []), {0})
    assert wt is None and not vt.holds and not vt.applicable
    assert vt.notes == ["needs a one-vertex complex"]


def test_find_certificate_grades():
    free = standard_complex(fixtures.free_presentation(2))
    cert = find_certificate(unit_weighting(free), "strict")
    assert cert is not None  # vacuous small-cancellation certificate
    aab9 = standard_complex(fixtures.aab_power_presentation(9))
    w = unit_weighting(aab9)
    cert = find_certificate(w, "strict")  # the "sc-strict" verdict, the same object
    assert cert.criterion == "sc-c4t4-strict" and cert is find_certificate(w, "sc-strict")
    fgip = standard_complex(
        parse_presentation("gens a b t / rel a t a^-1 t^-1 / rel b t b^-1 t^-1")
    )
    assert find_certificate(unit_weighting(fgip), "strict") is None
    aabb2 = standard_complex(parse_presentation("gens a b / rel ( a a b b )^2"))
    weak = find_certificate(unit_weighting(aabb2), "weak")
    assert weak is not None and weak.criterion == "one-relator-torsion"


def test_find_certificate_stops_at_first_holding_verdict(monkeypatch):
    calls = []
    original = criteria.check_sc_weight

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(criteria, "check_sc_weight", counted)
    aab3 = standard_complex(fixtures.aab_power_presentation(3))
    weak = find_certificate(unit_weighting(aab3), "weak")
    assert weak.criterion == "one-relator-torsion" and calls == []
    torus = standard_complex(fixtures.torus_presentation())
    weak = find_certificate(unit_weighting(torus), "weak")
    assert weak.criterion == "sc-c4t4" and len(calls) == 1


_SC_COMPLEXES = [standard_complex(p) for p in (
    fixtures.aab_power_presentation(3),
    fixtures.torus_presentation(),
    fixtures.zzz_presentation(),
    fixtures.surface_presentation(2, True),
    fixtures.surface_presentation(3, False),
    fixtures.modify_presentation(),
    fixtures.two_relator_block_presentation(),
    fixtures.magnus_example_presentation(),
)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_sc_weight_matches_reference_scan(data):
    x = data.draw(st.one_of(st.sampled_from(_SC_COMPLEXES), relator_complexes()))
    w = data.draw(side_weightings(x))
    for variant in ("C4T4", "C6T3"):
        for strict in (False, True):
            assert check_sc_weight(w, variant, strict) == \
                reference_check_sc_weight(x, w, variant, strict)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_one_relator_torsion_matches_reference(data):
    # proper powers W^n with a period of at least 2 letters
    ngens = data.draw(st.integers(1, 3))
    letter = st.sampled_from([s * g for g in range(1, ngens + 1) for s in (1, -1)])
    period = cyclic_reduce(Word(tuple(data.draw(st.lists(letter, min_size=2, max_size=10)))))
    assume(len(period) >= 2)
    exponent = data.draw(st.integers(2, 8))
    gens = tuple(f"g{i + 1}" for i in range(ngens))
    x = standard_complex(Presentation(gens, (Word(period.letters * exponent),)))
    assume(x.periods[0][0] >= 2)
    w = data.draw(side_weightings(x))
    assert check_one_relator_torsion(w) == reference_check_one_relator_torsion(x, w)


# (aab)^9: the strict grade holds by sc-C4T4 and the weak one by one-relator
# torsion; genus 2: both grades hold by sc-C4T4, one verdict each
@pytest.mark.parametrize("pres, gens, u, sc_verdicts", [
    (fixtures.aab_power_presentation(9), [word([1, 1, 2]), word([2, 1, 1, 2])],
     word([1, 1, 2, 2, 1, 1]), 1),
    (fixtures.surface_presentation(2, True), [word([1, 2]), word([3, -4, 1])],
     word([1, 2, 1, 2]), 2),
])
def test_certificate_built_once_per_weighting(monkeypatch, pres, gens, u, sc_verdicts):
    calls = Counter()
    for module, name in ((complexes, "compute_pieces"), (criteria, "check_sc_weight")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    x = standard_complex(pres)
    w = unit_weighting(x)
    subs = [subgroup_presentation(x, w, gens) for _ in range(20)]
    members = [member(x, w, gens, u) for _ in range(20)]
    meets = [intersect(x, w, gens, gens[:1]) for _ in range(20)]
    assert calls["compute_pieces"] == 1
    assert calls["check_sc_weight"] == sc_verdicts
    sub, meet = subgroup_presentation(x, unit_weighting(x), gens), \
        intersect(x, unit_weighting(x), gens, gens[:1])
    answer = member(x, unit_weighting(x), gens, u)
    assert all(s.certificate == sub.certificate and s.presentation == sub.presentation
               for s in subs)
    assert all(m.certificate == meet.certificate and m.presentation == meet.presentation
               for m in meets)
    assert members == [answer] * 20
    assert find_certificate(w, "weak") == find_certificate(unit_weighting(x), "weak")


@pytest.mark.parametrize("build", [
    lambda: standard_complex(fixtures.surface_presentation(2, True)),
    lambda: fixtures.double_cover_of_torus().domain,  # two vertices
], ids=["genus2", "double-cover"])
def test_complex_invariants_derived_once(derivations, build):
    x = build()
    weighted = Weighting(x, tuple(tuple(1 + i % 3 for i in range(len(b))) for b in x.cells))
    for w in (unit_weighting(x), weighted):
        for grade in ("strict", "weak", "sc-strict"):
            find_certificate(w, grade)
        for variant in ("C4T4", "C6T3"):
            check_sc_weight(w, variant)
    assert derivations == Counter({"pieces": 1,
                                   **{("girth", v): 1 for v in range(x.num_vertices)}})


_TORUS = standard_complex(fixtures.torus_presentation())

REFUSED = {
    "equalweights-unreduced": (lambda: check_equalweights(word([1, 2, -1]), 3),
                               "W must be nonempty and cyclically reduced"),
    "equalweights-empty": (lambda: check_equalweights(word([]), 3),
                           "W must be nonempty and cyclically reduced"),
    "min-generator-unreduced": (lambda: check_min_generator(word([1, 2, -1]), 3),
                                "W must be nonempty and cyclically reduced"),
    "sc-variant": (lambda: check_sc_weight(unit_weighting(_TORUS), "C7T3"),
                   "unknown variant 'C7T3'"),
    "sc-variant-not-a-name": (lambda: check_sc_weight(unit_weighting(_TORUS), 5),
                              "unknown variant 5"),
    "sc-variant-unhashable": (lambda: check_sc_weight(unit_weighting(_TORUS), ["C4T4"]),
                              "unknown variant ['C4T4']"),
    "powers-none": (lambda: power_theorem([]), "need at least one word"),
    "powers-unreduced": (lambda: power_theorem([word([1, -1, 2])]),
                         "words must be nonempty and cyclically reduced"),
    "powers-proper-power": (lambda: power_theorem([word([1, 2, 1, 2])]),
                            "word (1, 2, 1, 2) is a proper power"),
    "powers-conjugate": (lambda: power_theorem([word([1, 2]), word([-1, -2])]),
                         "words are cyclically conjugate (up to inversion)"),
    "powers-exponents": (lambda: power_theorem([word([1, 2])], [3, 4]),
                         "one exponent per word required"),
    "certificate-grade": (lambda: find_certificate(unit_weighting(_TORUS), "medium"),
                          "grade must be 'strict', 'weak' or 'sc-strict'"),
    "magnus-edge-past-last": (lambda: magnus_weighting(_TORUS, {5}), "unknown subgraph edge 5"),
    "magnus-edge-below-0": (lambda: magnus_weighting(_TORUS, {-1}), "unknown subgraph edge -1"),
}


@pytest.mark.parametrize("build, message", REFUSED.values(), ids=list(REFUSED))
def test_hostile_criterion_input_is_refused(build, message):
    with pytest.raises(CriterionError) as refused:
        build()
    assert refused.type is CriterionError and str(refused.value) == message
