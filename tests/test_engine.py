import copy
import hashlib
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from perifold import engine
from perifold.complexes import Complex2, standard_complex
from perifold.criteria import magnus_weighting
from perifold.engine import (
    AttachmentSite,
    EngineError,
    ReductionTrace,
    StaleSiteError,
    TraceStep,
    attach_site,
    extract_presentation,
    find_site,
    reduce_domain,
)
from perifold.maps import CombMap, Domain, based_fiber_product, end_stars, find_fold, is_packed
from perifold.subgroups import intersect, member_with_trace
from perifold.weights import (
    cell_weight,
    edge_perimeters,
    map_perimeter,
    path_perimeter,
    unit_weighting,
)
from perifold.words import cyclic_reduce, free_reduce, parse_presentation

from conftest import random_grid_subcomplex, relator_complexes, side_weightings
import fixtures
from fixtures import random_generator_set, random_reduced_word, relator_conjugate_product
from reference import (
    AttachResult,
    EagerDomain,
    apply_fold,
    build_packet,
    fold_to_immersion,
    present_corners,
    reduce_map,
    reference_attach_packet,
    reference_augment_domain,
    reference_augment_with_cells,
    reference_based_product,
    reference_bouquet_map,
    reference_candidates,
    reference_extract_presentation,
    reference_find_attachment,
    reference_remove_redundant,
    reference_repair_packing,
    repeated_cells,
    replace,
    vertex_map,
    word,
)


def test_candidate_strictness_flags():
    # on the torus the complement of a length-2 subpath has perimeter 4 =
    # Wt(R), which only the weak bound admits: at every start the candidates
    # begin at length 2 in weak mode and at length 3 in strict mode
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    for mode, lo in (("weak", 2), ("strict", 3)):
        assert [group_lo for _key, _ring, group_lo in engine._scan_plan(w, mode)] == [lo] * 4


def test_find_site_on_bare_circle():
    x = standard_complex(fixtures.aab_power_presentation(3))
    w = unit_weighting(x)
    m = fold_to_immersion(reference_bouquet_map(x, [word([1, 1, 2] * 3)])).map
    site = find_site(Domain(m, w), "strict")
    assert site is not None and site.complete
    assert site.length == 9


def test_find_site_none_when_packet_present():
    x = standard_complex(fixtures.aab_power_presentation(3))
    w = unit_weighting(x)
    dom = Domain(build_packet(x, 0), w)
    assert dom.repair() == 0  # the packet is whole: nothing to glue
    assert find_site(dom, "strict") is None
    assert find_site(dom, "weak") is None


def test_attach_complete_square():
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m = fold_to_immersion(reference_bouquet_map(x, [word([1, 2, -1, -2])])).map
    before = map_perimeter(w, m)
    dom = Domain(m, w)
    site = find_site(dom, "strict")
    assert site is not None and site.complete
    attach_site(dom, site)
    after = map_perimeter(w, dom.to_map())
    assert before == 8 and after == 4
    assert after <= before - cell_weight(w, 0)


def test_attach_incomplete_equality_case():
    # weak flap on the cover-image ladder: P(packet) == P(Q), perimeter fixed
    m = fixtures.ladder_start_map()
    w = unit_weighting(m.codomain)
    dom = Domain(m, w)
    site = find_site(dom, "weak")
    assert site is not None and not site.complete
    assert site.length == 2
    attach_site(dom, site)
    assert map_perimeter(w, dom.to_map()) == map_perimeter(w, m) == 8


def test_reduce_free_group():
    x = standard_complex(fixtures.free_presentation(2))
    w = unit_weighting(x)
    res = reduce_map(reference_bouquet_map(x, [word([1, 1]), word([1, 2])]), w)
    assert res.map.domain.num_vertices == 2
    assert res.map.domain.num_edges() == 3
    assert all(s.kind == "fold" for s in res.trace.steps)


def test_reduce_commutator_fills_square():
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    res = reduce_map(reference_bouquet_map(x, [word([1, 2, -1, -2])]), w)
    pres = extract_presentation(res.map)
    assert len(pres.generators) == 1 and len(pres.relators) == 1
    assert pres.relators[0].letters in ((1,), (-1,))  # trivial group


def test_reduce_empty_generators():
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    res = reduce_map(reference_bouquet_map(x, []), w)
    assert res.map.domain.num_vertices == 1
    assert res.map.domain.num_edges() == 0
    assert res.trace.steps == []


def test_reduce_idempotent():
    x = standard_complex(fixtures.aab_power_presentation(3))
    w = unit_weighting(x)
    res = reduce_map(reference_bouquet_map(x, [word([1, 1, 2, 1])]), w)
    again = reduce_map(res.map, w)
    assert again.trace.steps == []


def test_weak_mode_requires_limit():
    m = fixtures.ladder_start_map()
    w = unit_weighting(m.codomain)
    with pytest.raises(EngineError):
        reduce_map(m, w, "weak")


def test_reduction_refuses_an_unknown_mode():
    m = fixtures.ladder_start_map()
    w = unit_weighting(m.codomain)
    with pytest.raises(EngineError, match="mode must be"):
        reduce_map(m, w, "lax")
    with pytest.raises(EngineError, match="mode must be"):
        find_site(Domain(m, w), "lax")
    # and a negative step limit, which would end the run before any step
    for mode in ("strict", "weak"):
        with pytest.raises(EngineError, match="step_limit must be at least 0, not -1"):
            reduce_domain(Domain(m, w), mode, -1)
    x = standard_complex(fixtures.surface_presentation(2, True))
    with pytest.raises(EngineError, match="step_limit must be at least 0, not -3"):
        intersect(x, unit_weighting(x), [word([1])], [word([2])], step_limit=-3)
    # a word trivial in the free group needs no reduction, and is refused alike
    with pytest.raises(EngineError, match="step_limit must be at least 0, not -1"):
        member_with_trace(x, unit_weighting(x), [], word([1, -1]), step_limit=-1)


def test_trace_complexity_and_step_bound(rng):
    fixtures_list = [
        (standard_complex(fixtures.torus_presentation()), 1),
        (standard_complex(fixtures.aab_power_presentation(3)), 1),
        (standard_complex(fixtures.zzz_presentation()), 3),
    ]
    for x, _ in fixtures_list:
        w = unit_weighting(x)
        cprime = max((x.boundary_length(c) for c in range(x.num_cells())), default=0)
        for _ in range(10):
            gens = []
            for _ in range(rng.randint(1, 2)):
                wd = free_reduce(word([rng.choice([1, -1, 2, -2])
                                       for _ in range(rng.randint(2, 8))]))
                if wd.letters:
                    gens.append(wd)
            if not gens:
                continue
            m = reference_bouquet_map(x, gens)
            p0 = map_perimeter(w, m)
            e0 = m.domain.num_edges()
            res = reduce_map(m, w, verify=True)
            pair = (p0, e0)
            for step in res.trace.steps:
                new_pair = (step.perimeter, step.edges)
                if step.kind == "fold" or (step.kind.startswith("attach")):
                    assert new_pair < pair, (step.kind, pair, new_pair)
                else:
                    assert new_pair <= pair
                pair = new_pair
            working = sum(1 for s in res.trace.steps
                          if s.kind == "fold" or s.kind.startswith("attach"))
            assert working <= cprime * p0 + e0


def test_trace_export_format():
    m = fixtures.ladder_start_map()
    w = unit_weighting(m.codomain)
    res = reduce_map(m, w)
    lines = res.trace.to_lines()
    assert lines
    for line in lines:
        assert re.fullmatch(
            r"step=\d+ kind=(fold|attach-complete|attach-incomplete|repair|"
            r"remove-redundant) P=\d+ edges=\d+", line)


def test_reduce_output_is_structurally_sound(rng):
    # final maps validate, are packed 1-immersions, and admit no strict site
    presentations = [
        fixtures.torus_presentation(),
        fixtures.aab_power_presentation(3),
        fixtures.surface_presentation(2, False),
        fixtures.modify_presentation(),
    ]
    for pres in presentations:
        x = standard_complex(pres)
        w = unit_weighting(x)
        ngen = x.num_edges()
        for _ in range(8):
            letters = [rng.choice([s * g for g in range(1, ngen + 1) for s in (1, -1)])
                       for _ in range(rng.randint(2, 10))]
            g = free_reduce(word(letters))
            if not g.letters:
                continue
            res = reduce_map(reference_bouquet_map(x, [g]), w, verify=True)
            res.map.validate()
            assert find_fold(res.map) is None
            assert is_packed(res.map)[0]
            dom = Domain(res.map, w)
            assert dom.repair() == 0
            assert find_site(dom, "strict") is None
            assert res.trace.steps == [] or \
                res.trace.steps[-1].perimeter == map_perimeter(w, res.map)


def test_find_site_requires_immersion(rng):
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m = reference_bouquet_map(x, [word([1]), word([1, 2])])
    with pytest.raises(EngineError, match="1-immersion"):
        find_site(Domain(m, w))


def test_find_site_requires_packed_map():
    # one cell of the (aab)^3 packet without its two mates: a 1-immersion
    # that is not packed
    x = standard_complex(fixtures.aab_power_presentation(3))
    m = build_packet(x, 0)
    lone = replace(m, domain=replace(m.domain, cells=m.domain.cells[:1]),
                   cell_image=m.cell_image[:1])
    assert find_fold(lone) is None
    dom = Domain(lone, unit_weighting(x))
    assert not dom.packed
    with pytest.raises(EngineError, match="packed"):
        find_site(dom)


def test_attach_site_refuses_a_site_of_another_domain():
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m = fold_to_immersion(reference_bouquet_map(x, [word([1, 2, -1, -2])])).map
    found, other = Domain(m, w), Domain(m, w)
    site = find_site(found)
    assert site is not None
    with pytest.raises(StaleSiteError, match="another domain"):
        attach_site(other, site)
    assert other.to_map() == m  # nothing was glued
    assert attach_site(found, site) == 1


def test_attach_site_refuses_a_site_whose_root_was_merged_away():
    # torus, generator b a^-1 b^-1 a a b: the strict site is the whole
    # square from position 1, whose attachment merges vertex 4 into 0; the
    # weak site, found before it, starts at vertex 4
    x = standard_complex(fixtures.torus_presentation())
    dom = Domain.bouquet(unit_weighting(x), [word([2, -1, -2, 1, 1, 2])])
    dom.fold_all()
    dom.remove_redundant()
    dom.repair()
    strict, weak = find_site(dom, "strict"), find_site(dom, "weak")
    attach_site(dom, strict)
    with pytest.raises(StaleSiteError, match="merged away"):
        attach_site(dom, weak)
    assert strict == AttachmentSite(0, 1, 4, 0, True, dom)
    assert weak == AttachmentSite(0, 0, 2, 4, False, dom)
    assert dom.find(4) == 0


@pytest.mark.parametrize("words, site", [
    ([[1, 2, 1, 2, -1, 2], [1, 1]], (0, 0, 3, 2, False)),
    ([[1, 2, -1, -2]], (0, 0, 4, 0, True)),
])
def test_attach_site_refuses_a_site_it_has_glued(words, site):
    # on the torus, a site reused after its attachment has its packet
    # present along it: the second call is refused before it changes the
    # domain, for an incomplete site (whose arc would be glued again) as
    # for a complete one
    x = standard_complex(fixtures.torus_presentation())
    dom = Domain.bouquet(unit_weighting(x), [word(ls) for ls in words])
    dom.fold_all()
    found = find_site(dom)
    assert found == AttachmentSite(*site, dom)
    assert attach_site(dom, found) == 1
    glued = (dom.num_vertices, dom.num_edges, dom.num_cells, dom.perimeter)
    with pytest.raises(StaleSiteError, match="packet already present"):
        attach_site(dom, found)
    assert (dom.num_vertices, dom.num_edges, dom.num_cells, dom.perimeter) == glued


def test_extract_presentation_shapes():
    x = standard_complex(fixtures.free_presentation(2))
    circle = fold_to_immersion(reference_bouquet_map(x, [word([1, 2, 1])])).map
    pres = extract_presentation(circle)
    assert len(pres.generators) == 1 and not pres.relators
    theta = CombMap(
        Complex2(2, [(0, 1), (0, 1), (0, 1)], []), x,
        [0, 0], [1, 2, 1], [], 0,
    )
    pres2 = extract_presentation(theta)
    assert len(pres2.generators) == 2 and not pres2.relators
    two_points = CombMap(Complex2(2, [], []), x, [0, 0], [], [], 0)
    with pytest.raises(EngineError, match="extract_presentation requires a connected domain"):
        extract_presentation(two_points)


def test_relator_bound_and_euler():
    x = standard_complex(fixtures.surface_presentation(2, True))
    w = unit_weighting(x)
    assert path_perimeter(w, word([1, 2, -1, -2])) == 8  # the relator bound of one commutator
    free = standard_complex(fixtures.free_presentation(2))
    wf = unit_weighting(free)
    point = reference_bouquet_map(free, [])
    assert point.domain.euler_characteristic() + map_perimeter(wf, point) == 1


# --- the reduction loop against the map-level references -------------------


def reference_reduce(m, w, step_limit=None):
    """reduce_map in strict mode built of map-level references that read no
    `Domain`: folds one at a time by find_fold and apply_fold, removal,
    repair and attachment by copying the map, the scan by
    reference_find_attachment, and the double-sum perimeter.  Returns (map,
    steps, vertex tracking, exhausted)."""
    tracking = list(range(m.domain.num_vertices))
    perimeter = map_perimeter(w, m)
    steps = []

    def out_of_steps():
        return step_limit is not None and len(steps) >= step_limit

    def log(kind, p, detail=None):
        steps.append(TraceStep(kind, p, m.domain.num_edges(), m.domain.num_vertices,
                               m.domain.num_cells(), detail or {}))

    def fold_and_pack():
        nonlocal m, perimeter, tracking
        while not out_of_steps():
            fold = find_fold(m)
            if fold is None:
                break
            res = apply_fold(m, fold)
            m = res.map
            tracking = [res.vertex_map[v] for v in tracking]
            perimeter = map_perimeter(w, m)
            log("fold", perimeter)
        m, removed = reference_remove_redundant(m)
        if removed:
            log("remove-redundant", perimeter, {"removed": removed})
        m, added = reference_repair_packing(m)
        if added:
            perimeter = map_perimeter(w, m)
            log("repair", perimeter, {"added": added})

    fold_and_pack()
    while not out_of_steps():
        site = reference_find_attachment(m, w)
        if site is None:
            break
        res = reference_attach_packet(m, w, site)
        m = res.map
        tracking = [res.vertex_map[v] for v in tracking]
        before, perimeter = perimeter, map_perimeter(w, m)
        log("attach-complete" if res.complete else "attach-incomplete", perimeter,
            {"cell": site.cell, "delta": perimeter - before})
        fold_and_pack()
    exhausted = out_of_steps() and (
        find_fold(m) is not None or reference_find_attachment(m, w) is not None)
    return m, steps, tracking, exhausted


def reference_fold(m):
    """fold_to_immersion as repeated find_fold / apply_fold; folds are
    reported as refs of the input map."""
    alive = list(range(1, m.domain.num_edges() + 1))  # current edge -> input ref
    vmap = list(range(m.domain.num_vertices))
    folds = []
    while (fold := find_fold(m)) is not None:
        _v, d1, d2 = fold
        folds.append(tuple(alive[abs(d) - 1] * (1 if d > 0 else -1) for d in (d1, d2)))
        del alive[abs(d2) - 1]
        res = apply_fold(m, fold)
        vmap = [res.vertex_map[v] for v in vmap]
        m = res.map
    m, removed = reference_remove_redundant(m)
    return m, folds, removed, vmap


_DIFF_COMPLEXES = [
    (standard_complex(fixtures.torus_presentation()), unit_weighting),
    (standard_complex(fixtures.aab_power_presentation(3)), unit_weighting),
    (standard_complex(fixtures.surface_presentation(2, True)), unit_weighting),
    (standard_complex(fixtures.zzz_presentation()), fixtures.zzz_weighting),
]


def memoized(fn, memo):
    """fn on the identity of its arguments; the arguments stay in `memo`,
    so no identity is reused while it lives."""
    def call(*args):
        key = (fn, *map(id, args))
        if key not in memo:
            memo[key] = args, fn(*args)
        return memo[key][1]
    return call


_REFERENCE_STEPS = (find_fold, apply_fold, map_perimeter, reference_find_attachment,
                    reference_attach_packet, reference_remove_redundant,
                    reference_repair_packing)


def assert_same_as_reference(m, w):
    # `verify` checks every step's P against the double sum; the runs cut
    # short repeat the full run's steps, so they are compared unverified.
    # The reference steps are pure, so the references at every limit share
    # the steps of their common prefix: each step runs once per input map
    full = reduce_map(m, w, verify=True)
    memo = {}
    with mock.patch.dict(globals(), {fn.__name__: memoized(fn, memo)
                                     for fn in _REFERENCE_STEPS}):
        for limit in [None, *range(len(full.trace.steps) + 2)]:
            got = full if limit is None else reduce_map(m, w, step_limit=limit)
            want_map, want_steps, want_tracking, want_exhausted = reference_reduce(m, w, limit)
            assert got.trace.to_lines() == [
                f"step={k} kind={s.kind} P={s.perimeter} edges={s.edges}"
                for k, s in enumerate(want_steps, start=1)]
            assert got.trace.steps == want_steps  # every TraceStep field
            assert got.map == want_map  # every CombMap field
            assert got.vertex_tracking == want_tracking
            assert got.exhausted == want_exhausted
    got = fold_to_immersion(m)
    assert (got.map, got.folds, got.removed_cells, got.vertex_map) == reference_fold(m)
    for given in (m, apply_fold(m).map if find_fold(m) else m):
        dom = Domain(given, w)
        removed = dom.remove_redundant()
        assert (dom.to_map(), removed) == reference_remove_redundant(given)
        dom = Domain(given, w)
        added = dom.repair()
        assert (dom.to_map(), added) == reference_repair_packing(given)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fold_phase_matches_one_fold_at_a_time(data):
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    w = w_of(x)
    letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])
    gens = [g for g in (free_reduce(word(ls)) for ls in data.draw(
        st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3)))
        if g.letters]
    m = reference_bouquet_map(x, gens)
    if data.draw(st.booleans()):
        m = reference_augment_with_cells(m)  # cells glued at every vertex fold together
    assert_same_as_reference(m, w)


def test_fold_phase_with_cells_matches_reference():
    # reduced maps with a copy of every cell at each vertex: folds identify
    # edges that both carry a side, and redundant cells appear
    for x, w_of in _DIFF_COMPLEXES:
        w = w_of(x)
        gens = [word([1, 2, -1]), word([2, 2, 1])]
        m = reference_augment_with_cells(reduce_map(reference_bouquet_map(x, gens), w).map)
        assert_same_as_reference(m, w)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduction_loop_with_attachments_matches_reference(data):
    # words along the relators, so that the loop attaches packets, complete
    # and incomplete, between its fold phases: every step, map and tracking
    # against `reference_reduce`, which reads no `Domain`
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    gens = [g for g in (draw_word(data, x) for _ in range(data.draw(st.integers(1, 3))))
            if g.letters]
    whisker = draw_word(data, x) if data.draw(st.booleans()) else None
    assert_same_as_reference(reference_bouquet_map(x, gens, whisker), w_of(x))


def test_fold_phase_perimeter_calls_do_not_grow_with_folds(monkeypatch):
    x = standard_complex(fixtures.aab_power_presentation(9))
    w = unit_weighting(x)
    gens = [free_reduce(g) for g in random_generator_set(random.Random(101), 2, 160, 32)]
    m = reference_bouquet_map(x, [g for g in gens if g.letters])
    calls = []

    def counted(*args):
        calls.append(1)
        return map_perimeter(*args)

    monkeypatch.setattr(engine, "map_perimeter", counted)
    res = reduce_map(m, w)
    assert sum(s.kind == "fold" for s in res.trace.steps) > 100
    assert len(calls) <= 4


def test_large_bouquet_folds_as_with_eager_storage():
    # 20,000 letters over (aab)^9 in 4,000 random words: the wedge point's
    # end lists grow to thousands, merges move long lists into short ones
    # and the other way, and most roots are merged away, so `leaving` is
    # compacted.  The sha256 of every step's (kind, P, E, V, F) and of the
    # map built after the reduction is the same on a `Domain` as on the
    # `EagerDomain`, which re-sorts merged end lists whole and deletes from
    # `leaving` at once
    x = standard_complex(fixtures.aab_power_presentation(9))
    w = unit_weighting(x)
    gens = [g for g in map(free_reduce, random_generator_set(random.Random(101), 2, 20000, 4000))
            if g.letters]

    def digest(dom):
        trace, _exhausted = reduce_domain(dom)
        steps = [(s.kind, s.perimeter, s.edges, s.vertices, s.cells) for s in trace.steps]
        assert sum(kind == "fold" for kind, *_counts in steps) > 19000
        return hashlib.sha256(repr((steps, dom.to_map())).encode()).hexdigest()

    assert digest(Domain.bouquet(w, gens)) == digest(EagerDomain.bouquet(w, gens))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduction_matches_eager_storage(data):
    # bouquets along the relators, reduced, augmented and reduced again, so
    # that folds merge cells and the loop attaches packets: the same trace,
    # map and stars on a `Domain` as on the `EagerDomain`, and `leaving`
    # lists the same roots once its merged-away entries are skipped
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    w = w_of(x)
    gens, whisker = draw_bouquet_words(data, x)
    lazy, eager = Domain.bouquet(w, gens, whisker), EagerDomain.bouquet(w, gens, whisker)

    def reduced(dom):
        steps = reduce_domain(dom)[0].steps
        dom.augment()
        return steps + reduce_domain(dom)[0].steps

    assert reduced(lazy) == reduced(eager)
    assert lazy.to_map() == eager.to_map()
    assert lazy.stars == eager.stars
    assert {img: [v for v in roots if lazy.parent[v] == v] for img, roots in lazy.leaving.items()
            } == eager.leaving
    assert_leaving_lists_the_roots_over_each_image(lazy)


@pytest.mark.parametrize("change", ["add_arc", "fold_all", "_make_present"])
def test_verify_catches_a_wrong_perimeter_change(monkeypatch, change):
    # the live perimeter changes when an edge is added (a fresh arc), when
    # one is dropped (a fold) and when a side becomes present: put one of
    # them off by one, and `verify` finds the mismatch at that step
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m = reference_bouquet_map(x, [word([1, 2, 1, 2, -1, 2]), word([1, 1])])
    kinds = {s.kind for s in reduce_map(m, w, verify=True).trace.steps}
    assert {"fold", "attach-incomplete"} <= kinds  # every change is made
    original = getattr(Domain, change)

    def off_by_one(dom, *args):
        out = original(dom, *args)
        dom.perimeter += 1
        return out

    monkeypatch.setattr(Domain, change, off_by_one)
    with pytest.raises(EngineError, match="bookkeeping mismatch"):
        reduce_map(m, w, verify=True)


def test_verify_catches_a_fold_step_that_misstates_the_domain(monkeypatch):
    # the fold steps are read off what `fold_all` returns: let it report
    # each perimeter off by one, and `verify` finds it at the first fold
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m = reference_bouquet_map(x, [word([1, 2, 1, 2, -1, 2]), word([1, 1])])
    original = Domain.fold_all

    def misstated(dom, limit=None):
        folds, left = original(dom, limit)
        return [(d1, d2, p + 1, *counts) for d1, d2, p, *counts in folds], left

    monkeypatch.setattr(Domain, "fold_all", misstated)
    assert reduce_map(m, w).trace.steps[0].kind == "fold"
    with pytest.raises(EngineError, match="fold step misstates the domain"):
        reduce_map(m, w, verify=True)


def test_verify_catches_a_step_that_does_not_lower_the_pair(monkeypatch):
    # let strict mode accept candidates of slack 0, by reading its bound
    # as the weak one: on the torus the circle a b then takes an
    # incomplete attachment along two letters, which adds two edges and
    # leaves P as it was.  The double sum agrees with the live perimeter,
    # and only the strict drop of (P, #edges) fails
    x = standard_complex(fixtures.torus_presentation())
    m = reference_bouquet_map(x, [word([1, 2])])
    original = engine.shortest_subpath_reaching
    monkeypatch.setattr(engine, "shortest_subpath_reaching",
                        lambda w, c, start, total, strict=False: original(w, c, start, total))
    w = unit_weighting(x)  # fresh: the scan plan is kept on the weighting
    res = reduce_map(m, w, step_limit=1)
    step = res.trace.steps[0]
    assert (res.trace.initial_perimeter, res.trace.initial_edges) == (4, 2)
    assert (step.kind, step.perimeter, step.edges) == ("attach-incomplete", 4, 4)
    assert map_perimeter(w, res.map) == 4
    with pytest.raises(EngineError, match=r"attach-incomplete did not lower \(P, #edges\)"):
        reduce_map(m, w, verify=True)


def test_verify_catches_a_fold_phase_that_leaves_a_fold_or_a_lone_cell(monkeypatch):
    # a fold phase must end in a packed 1-immersion: let `fold_all` make no
    # fold, and the torus bouquet a b, a b^-1 keeps two ends over a at its
    # basepoint; let `repair` glue nothing, and one cell of the (aab)^3
    # packet stays without its two mates
    x = standard_complex(fixtures.torus_presentation())
    monkeypatch.setattr(Domain, "fold_all", lambda dom, limit=None: ([], False))
    dom = Domain.bouquet(unit_weighting(x), [word([1, 2]), word([1, -2])])
    with pytest.raises(EngineError, match="fold phase did not end in a 1-immersion"):
        reduce_domain(dom, verify=True)
    monkeypatch.undo()
    x = standard_complex(fixtures.aab_power_presentation(3))
    m = build_packet(x, 0)
    lone = replace(m, domain=replace(m.domain, cells=m.domain.cells[:1]),
                   cell_image=m.cell_image[:1])
    reduce_domain(Domain(lone, unit_weighting(x)), verify=True)  # `repair` glues the mates
    monkeypatch.setattr(Domain, "repair", lambda dom: 0)
    with pytest.raises(EngineError, match="fold phase did not end packed"):
        reduce_domain(Domain(lone, unit_weighting(x)), verify=True)


def test_a_complete_attachment_must_lower_the_perimeter_by_its_cell_weight(monkeypatch):
    # the torus square a b a^-1 b^-1 closes up along the whole cell, which
    # lowers P by Wt(R) = 4; the reduction raises when a complete
    # attachment lowers it by less, with or without `verify`
    x = standard_complex(fixtures.torus_presentation())

    def square():
        return Domain.bouquet(unit_weighting(x), [word([1, 2, -1, -2])])

    trace, _ = reduce_domain(square())
    assert [(s.kind, s.detail) for s in trace.steps] == [
        ("attach-complete", {"cell": 0, "delta": -4})]
    original = engine.attach_site

    def short_by_one(dom, site):
        added = original(dom, site)
        dom.perimeter += 1
        return added

    monkeypatch.setattr(engine, "attach_site", short_by_one)
    with pytest.raises(EngineError,
                       match=r"complete attachment failed to reduce perimeter by Wt\(R\)"):
        reduce_domain(square())


def test_domain_starts_at_the_map_perimeter(rng):
    # the edge perimeters less the weight of each side that some cell makes
    # present, counted once: the double sum, with twin cells too
    for x, w_of in _DIFF_COMPLEXES:
        w = w_of(x)
        maps = [build_packet(x, c) for c in range(x.num_cells())]
        for _ in range(6):
            u = random_reduced_word(rng, x.num_edges(), rng.randint(2, 10))
            m = reference_bouquet_map(x, [u])
            maps += [m, reduce_map(m, w).map]
        assert any(m.domain.num_cells() for m in maps)
        for m in maps:
            dom = m.domain
            twins = CombMap(Complex2(dom.num_vertices, dom.edges, dom.cells * 2), x,
                            m.vertex_image, m.edge_image, m.cell_image * 2, m.basepoint)
            for given in (m, twins):
                assert Domain(given, w).perimeter == map_perimeter(w, given)


# --- domain changes against the hand-built reference -------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bouquet_domain_matches_reference_map(data):
    # the arcs glued one by one onto the wedge point give the map built by
    # hand, its sorted end stars, and the live state of a `Domain` of that
    # map (which is glued edge by edge with the same `add_arc`)
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    w = w_of(x)
    letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])
    gens = [g for g in (draw_word(data, x) for _ in range(data.draw(st.integers(0, 3))))
            if g.letters]
    whisker = data.draw(st.sampled_from([None, word([]), "nonempty"]))
    if whisker == "nonempty":  # as drawn, not reduced
        whisker = word(data.draw(st.lists(letter, min_size=1, max_size=8)))
    want = reference_bouquet_map(x, gens, whisker)  # validated
    dom = Domain.bouquet(w, gens, whisker)
    assert dom.to_map() == want
    assert dom.stars == [{img: sorted(ends) for img, ends in star.items()}
                         for star in end_stars(want)]
    ref = Domain(want, w)
    for field in ("perimeter", "stars", "leaving", "num_vertices", "num_edges", "num_cells"):
        assert getattr(dom, field) == getattr(ref, field), field
    assert dom.next_fold() == ref.next_fold()


def assert_leaving_lists_the_roots_over_each_image(dom):
    # per image, the roots in `leaving` are exactly the roots it leaves,
    # each once, and every other entry is a root merged away, whose star is
    # gone; the list is ascending
    over: dict[int, list[int]] = {}
    for v, p in enumerate(dom.parent):
        if p == v:
            for img in dom.stars[v]:
                over.setdefault(img, []).append(v)
    live = {}
    for img, roots in dom.leaving.items():
        assert all(a < b for a, b in zip(roots, roots[1:])), roots
        live[img] = [v for v in roots if dom.parent[v] == v]
        assert all(dom.stars[v] is None for v in roots if dom.parent[v] != v), roots
    assert {img: roots for img, roots in live.items() if roots} == over


def assert_heap_holds_each_repeated_image(dom):
    # every (root, image) with two ends or more has an entry on the fold
    # heap; the other entries are stale, and `fold_all` drops them, so
    # between operations the top, which `next_fold` reads, is not stale
    repeated = {(v, img) for v, p in enumerate(dom.parent) if p == v
                for img, ends in dom.stars[v].items() if len(ends) > 1}
    assert repeated <= set(dom.heap), repeated - set(dom.heap)
    assert not dom.heap or dom.heap[0] in repeated, dom.heap[0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arc_gluing_matches_letter_by_letter(data):
    # an arc glued whole (each fresh star built at once and appended to
    # `leaving`, a heap push only where the arc backtracks) leaves the
    # domain that one single-letter `add_arc` per letter leaves, whose
    # fresh vertices take their second end through `_add_end`; the arcs
    # start at a root of a partly folded bouquet, so ids are not all roots
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    w = w_of(x)
    letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])
    gens = [g for g in (draw_word(data, x) for _ in range(data.draw(st.integers(1, 3))))
            if g.letters]
    folds = data.draw(st.integers(0, 6))

    def start():
        dom = Domain.bouquet(w, gens)
        dom.fold_all(folds)
        return dom

    whole, by_letter = start(), start()
    for _ in range(data.draw(st.integers(1, 3))):
        roots = list(whole.vertex_numbers())
        u, other = data.draw(st.sampled_from(roots)), data.draw(st.sampled_from(roots))
        v = data.draw(st.sampled_from([None, u, other]))
        letters = data.draw(st.lists(letter, min_size=1, max_size=8))
        refs, tail = [], u
        for k, ell in enumerate(letters):
            refs += by_letter.add_arc(tail, v if k == len(letters) - 1 else None, [ell])
            tail = len(by_letter.parent) - 1  # the fresh vertex, if one was made
        assert whole.add_arc(u, v, letters) == refs
        for field in ("stars", "leaving", "edges", "edge_image", "vertex_image", "parent",
                      "perimeter", "num_vertices", "num_edges", "num_cells"):
            assert getattr(whole, field) == getattr(by_letter, field), field
        assert whole.next_fold() == by_letter.next_fold()
        assert_leaving_lists_the_roots_over_each_image(whole)
        assert_heap_holds_each_repeated_image(whole)
    while (fold := whole.next_fold()) is not None:  # every repeat was pushed
        assert fold == by_letter.next_fold()
        assert whole.fold_all(1) == by_letter.fold_all(1)
        assert_leaving_lists_the_roots_over_each_image(whole)
        assert_heap_holds_each_repeated_image(whole)
    assert by_letter.next_fold() is None
    assert whole.to_map() == by_letter.to_map()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fold_heap_holds_each_repeated_image(data):
    # a bouquet of words as drawn with a copy of every cell glued at each
    # vertex, so that folds merge cells, folded one fold at a time: after
    # each fold every repeated image at a root has a heap entry.  Folding k
    # and then the rest makes the same folds, and leaves the same domain,
    # as folding all at once
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    w = w_of(x)
    letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])
    gens = [word(ls) for ls in data.draw(
        st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3))]
    m = reference_augment_with_cells(reference_bouquet_map(x, gens))
    stepped, folds = Domain(m, w), []
    assert_heap_holds_each_repeated_image(stepped)
    while made := stepped.fold_all(1)[0]:
        folds += made
        assert_leaving_lists_the_roots_over_each_image(stepped)
        assert_heap_holds_each_repeated_image(stepped)
    assert stepped.next_fold() is None and stepped.fold_all() == ([], False)
    whole, split = Domain(m, w), Domain(m, w)
    assert whole.fold_all() == (folds, False)
    k = data.draw(st.integers(0, len(folds)))
    first, left = split.fold_all(k)
    assert (first, left) == (folds[:k], k < len(folds))
    assert split.fold_all() == (folds[k:], False)
    for dom in (whole, split):
        for field in ("stars", "leaving", "dropped", "cycles", "twins", "sides",
                      "perimeter", "num_vertices", "num_edges", "num_cells"):
            assert getattr(dom, field) == getattr(stepped, field), field
        assert dom.to_map() == stepped.to_map()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_augment_matches_gluing_copy_by_copy(data):
    # each copy written whole (its arc, its cell, one side per edge and
    # P(∂R) - Wt(R) at once) leaves the domain that one `add_arc` and one
    # `_add_cell` per copy leave, on bouquets with folds still pending,
    # reduced ones, and grid maps with many vertices; the (aab)^3 copies
    # are unpacked, so `repair` runs on them
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    kind = data.draw(st.sampled_from(["raw", "reduced", "grid"]))
    w = w_of(x)
    if kind == "grid":
        m = random_grid_subcomplex(random.Random(data.draw(st.integers(0, 2**16))))
        x, w = m.codomain, fixtures.zzz_weighting(m.codomain)
    else:
        letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])
        gens = [word(ls) for ls in data.draw(
            st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3))]

    def start():
        if kind == "grid":
            return Domain(m, w)
        dom = Domain.bouquet(w, gens)
        if kind == "reduced":
            reduce_domain(dom)
        return dom

    whole, by_copy = start(), start()
    whole.augment()
    reference_augment_domain(by_copy)
    for field in ("stars", "leaving", "heap", "edges", "edge_image", "vertex_image", "parent",
                  "dropped", "cycles", "cell_image", "sides", "twins",
                  "perimeter", "num_vertices", "num_edges", "num_cells", "packed"):
        assert getattr(whole, field) == getattr(by_copy, field), field
    assert_leaving_lists_the_roots_over_each_image(whole)
    assert_heap_holds_each_repeated_image(whole)
    assert whole.fold_all() == by_copy.fold_all()
    assert whole.remove_redundant() == by_copy.remove_redundant()
    assert whole.repair() == by_copy.repair()
    assert whole.to_map() == by_copy.to_map()


def test_verify_catches_a_copy_written_without_a_side(monkeypatch):
    # the square of [a, b] on the torus with a copy of the cell glued at
    # each corner: the first copy folds onto the square, so each edge of it
    # drops a side that the square's edge already has.  Leave that side
    # out of `sides`, and `verify` finds a mismatch at the first fold: in
    # the perimeter if that fold drops the edge, else in `sides`
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)

    def reduced():
        dom = Domain.bouquet(w, [word([1, 2, -1, -2])])
        reduce_domain(dom)
        return dom

    first = len(reduced().edges)  # the first copy's edges come next
    original = Domain.augment
    for e in range(first, first + 4):
        def without_a_side(dom, e=e):
            original(dom)
            del dom.sides[e]

        dom = reduced()
        dom.augment()
        reduce_domain(dom, verify=True)  # the copy as written passes
        monkeypatch.setattr(Domain, "augment", without_a_side)
        dom = reduced()
        dom.augment()
        with pytest.raises(EngineError, match="bookkeeping mismatch"):
            reduce_domain(dom, verify=True)
        monkeypatch.setattr(Domain, "augment", original)


def test_verify_catches_a_root_left_out_of_leaving(monkeypatch):
    # two words over (aab)^3 with a common first letter fold at the wedge
    # point, merging the heads of their first edges.  An `identify` that
    # then leaves the root it keeps out of `leaving` over one letter that
    # leaves it makes `verify` fail at that fold, naming `leaving`
    x = standard_complex(fixtures.aab_power_presentation(3))
    w = unit_weighting(x)
    gens = [word([1, 1, 2]), word([1, 2, 2])]
    reduce_domain(Domain.bouquet(w, gens), verify=True)  # as written, it passes
    original = Domain.identify

    def leaving_out_a_root(dom, u, v):
        original(dom, u, v)
        root = min(u, v)
        dom.leaving[next(iter(dom.stars[root]))].remove(root)

    monkeypatch.setattr(Domain, "identify", leaving_out_a_root)
    with pytest.raises(EngineError, match="fold bookkeeping mismatch in leaving"):
        reduce_domain(Domain.bouquet(w, gens), verify=True)


def test_verify_checks_sides_against_the_cycles():
    # genus 2 with H = <a1 b1 a1^-1>: the reduced bouquet has two roots and
    # a copy of the one cell is glued at each, 16 copy edges of one side
    # each.  Clearing `sides` at a copy edge loses the side and its cell,
    # and `verify` finds it at the first fold, for every copy edge
    x = standard_complex(fixtures.surface_presentation(2, True))
    w = unit_weighting(x)

    def augmented():
        dom = Domain.bouquet(w, [word([1, 2, -1])])
        reduce_domain(dom)
        first = len(dom.edges)
        dom.augment()
        return dom, range(first, len(dom.edges))

    dom, copy_edges = augmented()
    assert len(copy_edges) == 16
    reduce_domain(dom, verify=True)  # the domain as glued passes
    for e in copy_edges:
        dom, _ = augmented()
        dom.sides[e].clear()
        with pytest.raises(EngineError, match="fold bookkeeping mismatch"):
            reduce_domain(dom, verify=True)

    # the square of [a, b] on the torus with a copy of the cell glued at
    # its corner: the first fold moves the copy's first edge onto the
    # square's, so side (0, 0) there has both cells.  Drop the copy from
    # it: the side stays present and the perimeter still adds up, so only
    # the comparison with the cycles finds it, at the next fold
    x = standard_complex(fixtures.torus_presentation())

    def folded_once():
        dom = Domain.bouquet(unit_weighting(x), [word([1, 2, -1, -2])])
        reduce_domain(dom)
        dom.augment()
        dom.fold_all(1)
        return dom

    reduce_domain(folded_once(), verify=True)  # the domain as folded passes
    dom = folded_once()
    assert dom.sides[0] == {(0, 0): {0, 1}}
    dom.sides[0][(0, 0)].discard(1)
    with pytest.raises(EngineError, match="fold bookkeeping mismatch in sides"):
        reduce_domain(dom, verify=True)


def hand_built_map(data) -> CombMap:
    """A connected graph on up to five vertices with loop and parallel
    edges in a drawn order, cells along closed walks, and a drawn
    basepoint, mapped onto the one-vertex complex with an edge per edge
    and the same cells."""
    n = data.draw(st.integers(1, 5))
    tree = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    tree = [(t, s) if data.draw(st.booleans()) else (s, t) for s, t in tree]
    vertex = st.integers(0, n - 1)
    extra = data.draw(st.lists(st.tuples(vertex, vertex), max_size=6))  # loops and parallels
    edges = data.draw(st.permutations(tree + extra))
    ends = [[] for _ in range(n)]  # per vertex: (ref, the vertex at its head)
    for e, (src, tgt) in enumerate(edges):
        ends[src].append((e + 1, tgt))
        ends[tgt].append((-(e + 1), src))

    def walk_home(start):
        """A walk from `start` of drawn steps, closed along the way back
        to `start` that a search from it finds."""
        back = {start: None}  # vertex -> the ref that reached it
        queue = [start]
        for v in queue:
            for d, u in ends[v]:
                if u not in back:
                    back[u] = d
                    queue.append(u)
        refs, v = [], start
        for _ in range(data.draw(st.integers(0, 5)) if ends[start] else 0):
            d, v = data.draw(st.sampled_from(ends[v]))
            refs.append(d)
        while back[v] is not None:
            d = back[v]
            refs.append(-d)
            v = edges[abs(d) - 1][0] if d > 0 else edges[abs(d) - 1][1]
        return cyclic_reduce(word(refs)).letters  # still closed, and without backtracks

    cells = [c for c in (walk_home(data.draw(vertex))
                         for _ in range(data.draw(st.integers(0, 3)))) if c]
    x = Complex2(1, [(0, 0)] * len(edges), cells)
    m = CombMap(Complex2(n, edges, cells), x, [0] * n, [e + 1 for e in range(len(edges))],
                [(c, 0, False) for c in range(len(cells))], data.draw(vertex))
    m.validate()
    return m


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_extract_presentation_matches_reference(data):
    # ends listed in edge order, +e before -e, and heads read off the edge
    # list give the presentation of the sorted ends and `Complex2.head`,
    # on built maps, based fiber products and hand-built maps
    kind = data.draw(st.sampled_from(["to_map", "product", "hand"]))
    if kind == "hand":
        m = hand_built_map(data)
    else:
        x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
        w = w_of(x)
        domains = []
        for _ in range(2):
            dom = Domain.bouquet(w, [g for g in (draw_word(data, x) for _ in range(
                data.draw(st.integers(0, 3)))) if g.letters])
            if data.draw(st.booleans()):
                reduce_domain(dom)
                if kind == "product":
                    dom.augment()
                    reduce_domain(dom)
            domains.append(dom)
        m = domains[0].to_map() if kind == "to_map" else based_fiber_product(*domains)
    got, want = extract_presentation(m), reference_extract_presentation(m)
    assert (got, got.warnings) == (want, want.warnings)


def on_map(dom, m, site):
    """A site of a live domain in the numbering of `m = dom.to_map()`: in a
    1-immersion the root and the letters fix the lift, so only the root is
    renumbered."""
    return replace(site, root=dom.vertex_numbers()[site.root], domain=m.domain)


def attachments_against_reference(m, w, mode, step_limit):
    """Reduce m with `verify`; at every site the engine attaches at, check
    that `attach_site` changes the live domain as `reference_attach_packet`
    changes the map built from it, field by field.  Check that m is not
    changed, and that `Domain.augment` of the live reduced domain builds
    the map that the reference builds from the reduced map.  Returns
    (complete, identified) per attachment."""
    original = engine.attach_site
    kinds = []

    def both(dom, site):
        before = dom.to_map()
        roots = list(dom.vertex_numbers())  # the vertices of `before`, in order
        want = reference_attach_packet(before, w, on_map(dom, before, site))
        added = original(dom, site)
        assert_heap_holds_each_repeated_image(dom)  # `identify` keeps the top live
        # a complete site identified its endpoints when a vertex class went
        got = AttachResult(dom.to_map(), vertex_map(dom, roots), added, site.complete,
                           site.complete and dom.num_vertices < len(roots))
        assert got == want
        kinds.append((got.complete, got.identified_endpoints))
        return added

    given = copy.deepcopy(m)
    with mock.patch.object(engine, "attach_site", both):
        res = reduce_map(m, w, mode, step_limit, verify=True)
    assert m == given
    dom = Domain(m, w)
    reduce_domain(dom, mode, step_limit)
    dom.augment()
    assert dom.to_map() == reference_augment_with_cells(res.map)
    return kinds


def draw_word(data, x):
    """A random word, or a conjugate of a subword of a relator rotation (so
    that attachment sites are common)."""
    letter = st.sampled_from([s * (e + 1) for e in range(x.num_edges()) for s in (1, -1)])
    if data.draw(st.booleans()):
        return free_reduce(word(data.draw(st.lists(letter, min_size=1, max_size=10))))
    bdry = x.cells[data.draw(st.integers(0, x.num_cells() - 1))]
    k = data.draw(st.integers(0, len(bdry) - 1))
    rot = list(bdry[k:] + bdry[:k])
    if data.draw(st.booleans()):
        rot = [-d for d in reversed(rot)]
    c = data.draw(st.lists(letter, max_size=2))
    return free_reduce(word(c + rot[:data.draw(st.integers(1, len(rot)))]
                            + [-d for d in reversed(c)]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_domain_changes_match_reference(data):
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    gens = [g for g in (draw_word(data, x) for _ in range(data.draw(st.integers(0, 3))))
            if g.letters]
    whisker = draw_word(data, x) if data.draw(st.booleans()) else None
    mode = data.draw(st.sampled_from(["strict", "weak"]))
    limit = data.draw(st.integers(1, 12)) if mode == "weak" else None
    attachments_against_reference(reference_bouquet_map(x, gens, whisker), w_of(x), mode, limit)


def test_domain_changes_reach_every_attachment_kind():
    # complete with and without an identification, and incomplete
    rng = random.Random(8)
    kinds = set()
    for x, w_of in _DIFF_COMPLEXES:
        ngen = x.num_edges()
        for _ in range(12):
            m = reference_bouquet_map(x, [random_reduced_word(rng, ngen, rng.randint(2, 8))],
                                      random_reduced_word(rng, ngen, rng.randint(1, 8)))
            for mode, limit in (("strict", None), ("weak", 8)):
                kinds.update(attachments_against_reference(m, w_of(x), mode, limit))
    assert kinds == {(True, True), (True, False), (False, False)}


# --- attachment search against the reference ---------------------------------


def scans_against_reference(reduce):
    """Run `reduce()` with every `find_site` call checked against
    `reference_find_attachment` on the map built from the live domain;
    returns (mode, hit) per call."""
    original = engine.find_site
    scans = []

    def both(dom, mode="strict"):
        got = original(dom, mode)
        m = dom.to_map()
        want = reference_find_attachment(m, dom.weighting, mode)
        assert (None if got is None else on_map(dom, m, got)) == want
        scans.append((mode, got is not None))
        return got

    with mock.patch.object(engine, "find_site", both):
        reduce()
    return scans


# unit-weighted complexes with cells of one to four letters, groups whose
# shortest candidate has one letter, and a torsion cell beside a torus cell:
# the scan's lifts that are complete after their first letter, and
# one-letter lifts that qualify
_SHORT_RELATOR_COMPLEXES = [
    standard_complex(parse_presentation(f"gens a b / {rels}"))
    for rels in ("rel a", "rel a^2", "rel a b", "rel a^2 b", "rel a b a^-1 b^-1 / rel a^3")
]
# the reduction complexes, the weighted <a..f | abcdef^-1, fafbfcfdfe>,
# whose cells of length 6 and 10 give their (cell, start) groups different
# walk keys, with zero-perimeter edges over f, and the short relators
_SCAN_COMPLEXES = [
    *_DIFF_COMPLEXES,
    (standard_complex(fixtures.modify_presentation()), fixtures.modify_weighting),
    *((x, unit_weighting) for x in _SHORT_RELATOR_COMPLEXES),
]


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(_SCAN_COMPLEXES), st.integers(0, 2**32 - 1),
       st.integers(4, 24), st.integers(1, 3), st.booleans())
def test_find_site_matches_reference(case, seed, length, parts, whiskered):
    # torus, (aab)^3, genus 2, weighted zzz, weighted modify and the short
    # relators: every map a strict or weak reduction of a random bouquet
    # scans gets the reference's site, or None from both
    x, w_of = case
    w = w_of(x)
    rng = random.Random(seed)
    gens = [free_reduce(g) for g in random_generator_set(rng, x.num_edges(), length, parts)]
    whisker = random_reduced_word(rng, x.num_edges(), rng.randint(1, 8)) if whiskered else None
    m = reference_bouquet_map(x, [g for g in gens if g.letters], whisker)

    def both_modes():
        reduce_map(m, w, "strict", verify=True)
        # the limit leaves 20 steps after the first fold phase, so weak mode
        # is scanned whatever the number of folds
        reduce_map(m, w, "weak", m.domain.num_edges() + 20, verify=True)

    scanned = [mode for mode, _hit in scans_against_reference(both_modes)]
    assert {"strict", "weak"} <= set(scanned)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_DIFF_COMPLEXES[1:3]), st.integers(0, 2**32 - 1))
def test_find_site_matches_reference_on_intersect_maps(case, seed):
    # the maps `intersect` reduces on (aab)^3 and genus 2: a reduced bouquet
    # of two generators with a copy of every cell at each vertex, whose
    # scans mostly miss
    x, w_of = case
    w = w_of(x)
    rng = random.Random(seed)
    gens = [random_reduced_word(rng, x.num_edges(), rng.randint(4, 10)) for _ in range(2)]
    m = reference_augment_with_cells(reduce_map(reference_bouquet_map(x, gens), w).map)
    scans = scans_against_reference(lambda: reduce_map(m, w, "strict"))
    assert scans[-1] == ("strict", False)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_find_site_matches_reference_on_relator_products(seed, k):
    # genus-2 whiskers that are products of k relator conjugates, as
    # `member` reduces them: the scans hit.  In weak mode the scan decides
    # between lifts of one length that do and do not extend backward
    pres = fixtures.surface_presentation(2, True)
    x, w_of = _DIFF_COMPLEXES[2]
    w = w_of(x)
    u = relator_conjugate_product(random.Random(seed), pres.relators[0], 4, k)
    assume(u.letters)
    m = reference_bouquet_map(x, [], whisker=u)

    def both_modes():
        reduce_map(m, w, "strict")
        reduce_map(m, w, "weak", m.domain.num_edges() + 20)

    scans = scans_against_reference(both_modes)
    assert ("strict", True) in scans and ("weak", True) in scans


def test_find_site_matches_reference_on_the_weak_ladder():
    # H = <b^-1 a^2> with the whisker b^3 on the torus: the weak engine
    # builds a square ladder, so later scans pass dozens of blocked squares
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m = reference_bouquet_map(x, [word([-2, 1, 1])], whisker=word([2, 2, 2]))
    res = []
    scans = scans_against_reference(lambda: res.append(reduce_map(m, w, "weak", 60)))
    assert res[0].exhausted and res[0].map.domain.num_cells() == 60
    assert len(scans) == 61 and all(hit for _mode, hit in scans)


def assert_plan_matches_reference(x, w):
    # in both modes the plan holds one group per (cell, start) that has a
    # reference candidate, with lo its shortest candidate length, in the
    # walk order of the keys (-|R| strict, lo weak, cell, start); the
    # candidate lengths of each group are exactly [lo, |R|], as `find_site`
    # reads them.  Returns the groups' (cell, start) per mode.
    groups = {}
    for mode in ("strict", "weak"):
        lengths = {}
        for cand in reference_candidates(x, w, mode):
            lengths.setdefault((cand.cell, cand.start), []).append(cand.length)
        plan = engine._scan_plan(w, mode)
        want = sorted(((-x.boundary_length(c) if mode == "strict" else found[0], c, s), found[0])
                      for (c, s), found in lengths.items())
        assert [(key, lo) for key, _ring, lo in plan] == want
        for (_bound, c, s), ring, lo in plan:
            assert lengths[c, s] == list(range(lo, x.boundary_length(c) + 1))
            assert ring == x.cells[c][s:] + x.cells[c][:s]
        groups[mode] = set(lengths)
    return groups


def test_scan_plan_against_brute():
    # torus, (aab)^3, genus 2, weighted zzz, weighted modify and the short
    # relators
    for x, w_of in _SCAN_COMPLEXES:
        assert_plan_matches_reference(x, w_of(x))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scan_plan_matches_reference(data):
    x = data.draw(relator_complexes())
    w = data.draw(side_weightings(x))
    assert_plan_matches_reference(x, w)


def _weighted_fixture_complexes():
    presentations = [
        fixtures.aab_power_presentation(3),
        fixtures.torus_presentation(),
        fixtures.zzz_presentation(),
        fixtures.surface_presentation(2, True),
        fixtures.surface_presentation(3, False),
        fixtures.modify_presentation(),
        fixtures.two_relator_block_presentation(),
        fixtures.magnus_example_presentation(),
    ]
    for pres in presentations:
        x = standard_complex(pres)
        yield x, unit_weighting(x)
    for pres, w_of in [
        (fixtures.zzz_presentation(), fixtures.zzz_weighting),
        (fixtures.modify_presentation(), fixtures.modify_weighting),
        (fixtures.two_relator_block_presentation(), fixtures.two_relator_block_weighting),
        # a and b of perimeter 0
        (fixtures.magnus_example_presentation(), lambda x: magnus_weighting(x, {0, 1})[0]),
    ]:
        x = standard_complex(pres)
        yield x, w_of(x)


def test_candidate_lengths_form_an_interval_ending_at_the_boundary():
    # find_site tries each lift at the lengths [lo, |R|] of its group; that
    # is the site of trying it at every candidate length because the
    # candidate lengths of each (cell, start) are that interval, and on
    # these fixtures every (cell, start) has a group in both modes
    cases = list(_weighted_fixture_complexes())
    assert edge_perimeters(cases[-1][1])[:2] == [0, 0]
    for x, w in cases:
        groups = assert_plan_matches_reference(x, w)
        for mode in ("strict", "weak"):
            assert groups[mode] == {(c, s) for c in range(x.num_cells())
                                    for s in range(x.periods[c][0])}


def test_find_site_skips_blocked_circle():
    # torus, generator a b a b A b.  After one incomplete attachment the new
    # square's boundary is a closed complete lift whose packet is present:
    # the scan skips it and returns a length-3 site.  Before that attachment
    # no lift closes up.
    x = standard_complex(fixtures.torus_presentation())
    w = unit_weighting(x)
    m0 = reference_bouquet_map(x, [word([1, 2, 1, 2, -1, 2])])
    for limit in (0, 1):
        m = reduce_map(m0, w, step_limit=limit).map
        dom = Domain(m, w)
        site = find_site(dom)
        assert site is not None and not site.complete and site.length == 3
        assert on_map(dom, m, site) == reference_find_attachment(m, w)


def draw_bouquet_words(data, x):
    """One to three words as `draw_word` draws them, empty ones dropped,
    and a whisker or None."""
    gens = [g for g in (draw_word(data, x) for _ in range(data.draw(st.integers(1, 3))))
            if g.letters]
    whisker = draw_word(data, x) if data.draw(st.booleans()) else None
    return gens, whisker


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_DIFF_COMPLEXES[:3]), st.data())
def test_blocked_sides_match_present_corners(case, data):
    # torus, (aab)^3 and genus 2, at every scan of a strict reduction of a
    # bouquet, of that domain augmented, and of a weak run with a step
    # limit: for every scan group and every root its first letter leaves,
    # `_blocked`, read off `Domain.sides`, holds exactly when the lift's
    # first ref is a corner of a present cycle at its start modulo the
    # period; the exponent 3 of (aab)^3 puts corners past the period.
    # `attach_site` calls `_blocked`; `find_site` inlines its expression,
    # which the reference-scan tests (`-k find_site`) pin
    x, w_of = case
    w = w_of(x)
    gens, whisker = draw_bouquet_words(data, x)
    original, scanned = engine.find_site, []

    def checked(dom, mode="strict"):
        corners = present_corners(dom)
        for (_bound, cell, start), ring, _lo in engine._scan_plan(w, mode):
            for v in dom.leaving.get(ring[0], ()):
                if dom.parent[v] != v:
                    continue  # merged away, and skipped by `find_site`
                d = dom.stars[v][ring[0]][0]
                assert engine._blocked(dom, cell, start, d) == ((cell, start, d) in corners)
        scanned.append(mode)
        return original(dom, mode)

    with mock.patch.object(engine, "find_site", checked):
        dom = Domain.bouquet(w, gens, whisker)
        reduce_domain(dom)
        dom.augment()
        reduce_domain(dom)
        reduce_domain(Domain.bouquet(w, gens, whisker), "weak", 40)
    assert {"strict", "weak"} <= set(scanned)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_DIFF_COMPLEXES[:3]), st.data())
def test_twins_match_repeated_cells_after_every_fold(case, data):
    # torus, (aab)^3 and genus 2: a bouquet with a copy of every cell at
    # each vertex, or a reduced bouquet augmented, folded one fold at a
    # time.  After every fold the twins are the live cells whose (target
    # cell, cycle) repeats that of a smaller live cell, and
    # `remove_redundant` deletes exactly those
    x, w_of = case
    w = w_of(x)
    gens, whisker = draw_bouquet_words(data, x)
    if data.draw(st.booleans()):
        dom = Domain(reference_augment_with_cells(reference_bouquet_map(x, gens, whisker)), w)
    else:
        dom = Domain.bouquet(w, gens, whisker)
        reduce_domain(dom)
        dom.augment()
    assert dom.twins == repeated_cells(dom)
    while dom.fold_all(1)[0]:
        assert dom.twins == repeated_cells(dom)
    repeated = repeated_cells(dom)
    assert dom.remove_redundant() == len(repeated)
    assert repeated_cells(dom) == set() and all(dom.cycles[c] is None for c in repeated)


# --- decision procedures against the copying composition ---------------------


def copying_intersect(x, w, gens_h, gens_k, step_limit):
    """`intersect` composed of copies: every reduction builds its map, the
    reference augments the reduced map, and the all-pairs reference product
    of the two maps gives the based component.  Returns (presentation,
    trace, final map, exhausted)."""
    runs = []
    for gens in (gens_h, gens_k):
        bouquet = reduce_map(reference_bouquet_map(x, [g for g in gens if g.letters]), w,
                             "strict", step_limit)
        runs += [bouquet, reduce_map(reference_augment_with_cells(bouquet.map), w, "strict",
                                     step_limit)]
    based = reference_based_product(runs[1].map, runs[3].map)
    trace = ReductionTrace(runs[0].trace.initial_perimeter, runs[0].trace.initial_edges,
                           [step for run in runs for step in run.trace.steps])
    return extract_presentation(based), trace, based, any(run.exhausted for run in runs)


def copying_member(x, w, gens, u, step_limit):
    """`member_with_trace` read off the built map's `vertex_tracking`."""
    if not u.letters:
        return True, ReductionTrace(0, 0)
    m = reference_bouquet_map(x, [g for g in gens if g.letters], whisker=u)
    res = reduce_map(m, w, "strict", step_limit)
    if res.vertex_tracking[m.basepoint] == res.vertex_tracking[m.domain.num_vertices - 1]:
        return True, res.trace
    return (None if res.exhausted else False), res.trace


def assert_decisions_match_copying(x, w, gens_h, gens_k, u, step_limit):
    got = intersect(x, w, gens_h, gens_k, force=True, step_limit=step_limit)
    presentation, trace, based, exhausted = copying_intersect(x, w, gens_h, gens_k, step_limit)
    assert got.presentation == presentation
    assert got.trace.to_lines() == trace.to_lines()
    assert got.trace == trace  # every TraceStep field
    assert got.final_map == based  # every CombMap field
    assert got.exhausted == exhausted
    assert member_with_trace(x, w, gens_h, u, force=True, step_limit=step_limit) \
        == copying_member(x, w, gens_h, u, step_limit)
    return got


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decision_procedures_match_copying_composition(data):
    # one live domain per subgroup gives what building a map after every
    # reduction gives, with and without step limits
    x, w_of = data.draw(st.sampled_from(_DIFF_COMPLEXES))
    gens_h = [draw_word(data, x) for _ in range(data.draw(st.integers(1, 2)))]
    gens_k = [draw_word(data, x) for _ in range(data.draw(st.integers(1, 2)))]
    limit = data.draw(st.sampled_from([None, 0, 1, 2, 3, 5, 8, 13]))
    assert_decisions_match_copying(x, w_of(x), gens_h, gens_k, draw_word(data, x), limit)


def test_intersect_repairs_after_augment():
    # the copies `augment` glues over (aab)^3 lack their two mates, so the
    # augmented reductions repair; over the other complexes they need none
    for x, w_of in _DIFF_COMPLEXES:
        gens = [word([1, 2])]
        for limit in (None, 0, 2):
            got = assert_decisions_match_copying(x, w_of(x), gens, gens, word([1, 2]), limit)
            repaired = any(step.kind == "repair" for step in got.trace.steps)
            assert repaired == (x == _DIFF_COMPLEXES[1][0])
