"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report."""

import random
import time

from perifold.complexes import standard_complex
from perifold.criteria import check_sc_weight, power_theorem
from perifold.subgroups import intersect, member, subgroup_presentation
from perifold.weights import (
    cell_weight,
    edge_perimeters,
    map_perimeter,
    packet_weight,
    subpath_perimeter,
    unit_weighting,
)
from perifold.words import Word, free_reduce

from conftest import GraphOracle, random_grid_subcomplex
import fixtures
from fixtures import measure_reduction_scaling
from reference import build_packet, reduce_map, reference_bouquet_map, word


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} {detail}"


def test_01_perimeter_regression():
    t0 = time.perf_counter()
    m = fixtures.zzz_box_map()
    unit = map_perimeter(unit_weighting(m.codomain), m)
    weighted = map_perimeter(fixtures.zzz_weighting(m.codomain), m)
    elapsed = time.perf_counter() - t0
    report("01 box perimeters", unit == 28 and weighted == 54 and elapsed < 1.0,
           f"unit={unit} weighted={weighted} time={elapsed:.3f}s")


def test_02_side_counts():
    x = standard_complex(fixtures.aab_power_presentation(3))
    na, nb = len(x.sides[0]), len(x.sides[1])
    report("02 side counts", (na, nb) == (6, 3), f"a={na} b={nb}")


def test_03_folded_map_perimeter():
    phi, psi = fixtures.two_squares_maps()
    w = unit_weighting(phi.codomain)
    p_phi, p_psi = map_perimeter(w, phi), map_perimeter(w, psi)
    report("03 folded squares", (p_phi, p_psi) == (0, 1),
           f"P(phi)={p_phi} P(psi)={p_psi}")


def edge_minus_cell_perimeter(w, m):
    """The perimeter of a near-immersion, where the sides at each edge have
    distinct images: the edge perimeters less the cell weights.  None when m
    is no near-immersion."""
    sides = [(abs(d), (r, q)) for c, (r, _offset, _reflected) in enumerate(m.cell_image)
             for q, d in enumerate(m.rewritten_cycle(c))]
    if len(set(sides)) < len(sides):
        return None
    per = edge_perimeters(w)
    return (sum(per[abs(img) - 1] for img in m.edge_image)
            - sum(cell_weight(w, r) for r, _offset, _reflected in m.cell_image))


def test_04_formula_equivalence():
    t0 = time.perf_counter()
    box = fixtures.zzz_box_map()
    assert [edge_minus_cell_perimeter(w_of(box.codomain), box)
            for w_of in (unit_weighting, fixtures.zzz_weighting)] == [28, 54]
    psi = fixtures.two_squares_maps()[1]
    assert edge_minus_cell_perimeter(unit_weighting(psi.codomain), psi) is None
    rng = random.Random(404)
    checked = 0
    weightings = {}
    for _ in range(260):
        m = random_grid_subcomplex(rng)
        key = id(m.codomain)
        if key not in weightings:
            weightings[key] = (unit_weighting(m.codomain),
                               fixtures.zzz_weighting(m.codomain))
        fast = [edge_minus_cell_perimeter(w, m) for w in weightings[key]]
        if fast[0] is None:
            continue
        assert [map_perimeter(w, m) for w in weightings[key]] == fast
        checked += 1
        if checked >= 200:
            break
    elapsed = time.perf_counter() - t0
    report("04 fast == slow", checked >= 200 and elapsed < 10.0,
           f"checked={checked} time={elapsed:.2f}s")


SFORM_SUITE = [
    fixtures.aab_power_presentation(3),
    fixtures.aab_power_presentation(9),
    "gens a b / rel ( a a b b )^2",
    fixtures.torus_presentation(),
    fixtures.zzz_presentation(),
    fixtures.surface_presentation(2, True),
    fixtures.surface_presentation(3, False),
    fixtures.modify_presentation(),
    fixtures.two_relator_block_presentation(),
    fixtures.magnus_example_presentation(),
]


def test_05_sform_identity():
    # P(packet) = P(Q) + P(S) - n*Wt(R) for every boundary subpath Q of
    # every cell, with S its complement and P(packet) the double sum
    from perifold.words import parse_presentation

    count = 0
    for pres in SFORM_SUITE:
        if isinstance(pres, str):
            pres = parse_presentation(pres)
        x = standard_complex(pres)
        w = unit_weighting(x)
        for c in range(x.num_cells()):
            packet = build_packet(x, c)
            p_packet = map_perimeter(w, packet)
            assert edge_minus_cell_perimeter(w, packet) == p_packet
            m = x.boundary_length(c)
            for start in range(m):
                for length in range(m + 1):
                    p_q = subpath_perimeter(w, c, start, length)
                    p_s = subpath_perimeter(w, c, start + length, m - length)
                    assert p_packet == p_q + p_s - packet_weight(w, c)
                    count += 1
    report("05 S-form identity", count > 0, f"subpaths checked={count}")


def _random_chunk_word(rng, x, c, min_frac=0.5):
    bdry = x.cells[c]
    m = len(bdry)
    length = rng.randint(max(2, int(m * min_frac)), m)
    start = rng.randrange(m)
    letters = [bdry[(start + t) % m] for t in range(length)]
    for _ in range(rng.randint(0, 3)):
        letters.append(rng.choice([1, -1, 2, -2]))
    return free_reduce(Word(tuple(letters)))


def test_06_attachment_bookkeeping():
    rng = random.Random(606)
    presentations = [
        fixtures.torus_presentation(),
        fixtures.aab_power_presentation(3),
        fixtures.zzz_presentation(),
        fixtures.surface_presentation(2, True),
    ]
    attaches = 0
    runs = 0
    while runs < 100:
        pres = presentations[runs % len(presentations)]
        x = standard_complex(pres)
        w = unit_weighting(x)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = _random_chunk_word(rng, x, rng.randrange(x.num_cells()))
            if g.letters and all(abs(l) <= x.num_edges() for l in g.letters):
                gens.append(g)
        if not gens:
            continue
        runs += 1
        # verify=True recomputes the double sum after every incomplete
        # attachment and raises on any bookkeeping mismatch
        res = reduce_map(reference_bouquet_map(x, gens), w, verify=True)
        for step in res.trace.steps:
            if step.kind == "attach-complete":
                wt = cell_weight(w, step.detail["cell"])
                assert step.detail["delta"] <= -wt, step
                attaches += 1
            elif step.kind == "attach-incomplete":
                attaches += 1
        assert res.trace.steps == [] or \
            res.trace.steps[-1].perimeter == map_perimeter(w, res.map)
    report("06 attachment bookkeeping", attaches >= 40,
           f"runs={runs} attach steps={attaches}")


def test_07a_surface_verdicts():
    table = [
        (2, False, True, False),
        (3, False, True, True),
        (4, False, True, True),
        (1, True, True, False),
        (2, True, True, True),
        (3, True, True, True),
    ]
    ok = True
    for genus, orientable, want_weak, want_strict in table:
        t0 = time.perf_counter()
        x = standard_complex(fixtures.surface_presentation(genus, orientable))
        w = unit_weighting(x)
        weak = check_sc_weight(w, "C4T4", strict=False).holds
        strict = check_sc_weight(w, "C4T4", strict=True).holds
        ok &= (weak, strict) == (want_weak, want_strict)
        ok &= time.perf_counter() - t0 < 5.0
    report("07a surface verdicts", ok)


def test_07b_modify_weight_check():
    t0 = time.perf_counter()
    x = standard_complex(fixtures.modify_presentation())
    v = check_sc_weight(fixtures.modify_weighting(x), "C4T4")
    elapsed = time.perf_counter() - t0
    report("07b retooled one-relator", v.holds and elapsed < 5.0,
           f"holds={v.holds} time={elapsed:.2f}s")


def test_07c_two_relator_unit_fails():
    t0 = time.perf_counter()
    x = standard_complex(fixtures.two_relator_block_presentation())
    v = check_sc_weight(unit_weighting(x), "C4T4")
    worst = v.extras.get("worst", {})
    letters = tuple(
        x.cells[worst["cell"]][(worst["start"] + t) % 32]
        for t in range(worst.get("length", 0))
    ) if worst else ()
    ok = (
        v.applicable and not v.holds
        and letters == (1, 1, 1, 2, 2, 2)
        and worst["perimeter"] == 48 and worst["bound"] == 32
        and time.perf_counter() - t0 < 5.0
    )
    report("07c unit weighting fails", ok,
           f"witness={letters} P={worst.get('perimeter')} bound={worst.get('bound')}")


def test_07c_two_relator_weighted_passes():
    # Every edge perimeter is 4*1 + 4*3 = 16.  U's pieces are single letters,
    # so a two-piece subpath has P = 2*16 = 32 = Wt(U); V's are iii|jjj with
    # P = 6*16 = 96 = Wt(V).  The weak inequality holds with equality.
    x = standard_complex(fixtures.two_relator_block_presentation())
    v = check_sc_weight(fixtures.two_relator_block_weighting(x, 1, 3), "C4T4")
    report("07c weighted passes", v.holds,
           f"holds={v.holds} witnesses={v.witnesses}")


def test_08_power_theorem_values():
    n1, _ = power_theorem([word([1]), word([1, 1, 2, -1, -2]),
                           word([2]), word([2, 2, 1, -2, -1])])
    n2, _ = power_theorem([word([1, 2]), word([1, -2])])
    report("08 power theorem", (n1, n2) == (360, 24), f"N={n1},{n2}")


def _random_reduced(rng, max_len):
    letters = []
    n = rng.randint(1, max_len)
    while len(letters) < n:
        c = rng.choice([1, -1, 2, -2])
        if letters and c == -letters[-1]:
            continue
        letters.append(c)
    return Word(tuple(letters))


def test_09_free_group_oracle_equivalence():
    t0 = time.perf_counter()
    x = standard_complex(fixtures.free_presentation(2))
    w = unit_weighting(x)
    rng = random.Random(909)
    disagreements = 0
    cases = 0

    def all_reduced_words(max_len):
        stack = [()]
        while stack:
            cur = stack.pop()
            if cur:
                yield Word(cur)
            if len(cur) < max_len:
                for c in (1, -1, 2, -2):
                    if not cur or c != -cur[-1]:
                        stack.append(cur + (c,))

    gen_sets = [[u] for u in all_reduced_words(4)]
    for _ in range(60):
        total = rng.randint(4, 10)
        parts = rng.randint(2, 3)
        gens = []
        remaining = total
        for k in range(parts):
            size = remaining if k == parts - 1 else rng.randint(1, remaining - (parts - 1 - k))
            remaining -= size
            gens.append(_random_reduced(rng, max(1, size)))
        gen_sets.append(gens)
    queries = [_random_reduced(rng, 8) for _ in range(6)]
    for gens in gen_sets:
        oracle = GraphOracle(gens)
        res = subgroup_presentation(x, w, gens)
        cases += 1
        if len(res.presentation.generators) != oracle.rank() or res.presentation.relators:
            disagreements += 1
        for u in queries:
            cases += 1
            if member(x, w, gens, u) != oracle.member(u):
                disagreements += 1
    for _ in range(40):
        gens_h = [_random_reduced(rng, 5) for _ in range(rng.randint(1, 2))]
        gens_k = [_random_reduced(rng, 5) for _ in range(rng.randint(1, 2))]
        res = intersect(x, w, gens_h, gens_k)
        cases += 1
        got = len(res.presentation.generators)
        want = GraphOracle(gens_h).intersection_rank(GraphOracle(gens_k))
        if got != want or res.presentation.relators:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    report("09 free-group oracle", disagreements == 0 and elapsed < 60.0,
           f"cases={cases} disagreements={disagreements} time={elapsed:.1f}s")


def test_10_quadratic_time_bound():
    lengths = [20, 40, 80, 160]
    # generator counts proportional to L so the wedge actually folds
    samples = []
    for length in lengths:
        samples.append(measure_reduction_scaling(
            fixtures.aab_power_presentation(9), [length],
            seeds=[101, 102, 103], parts=max(2, length // 5), best_of=3,
        )[0])
    ratios = [steps / length for length, steps, _seconds in samples]
    c1 = max(ratios)
    steps_linear = c1 <= 1.1
    walls = [seconds for _length, _steps, seconds in samples]
    quadratic_ok = all(
        nxt <= 8.0 * prev + 0.05 for prev, nxt in zip(walls, walls[1:])
    )
    detail = " ".join(
        f"L={length}:steps={steps},wall={seconds * 1000:.1f}ms"
        for length, steps, seconds in samples
    )
    report("10 quadratic bound", steps_linear and quadratic_ok,
           f"C1={c1:.3f} {detail}")


def test_11_euler_perimeter_monotone():
    rng = random.Random(1111)
    presentations = [
        fixtures.torus_presentation(),
        fixtures.zzz_presentation(),
        fixtures.surface_presentation(2, True),
        fixtures.modify_presentation(),
    ]
    steps_seen = 0
    for pres in presentations:
        x = standard_complex(pres)
        w = unit_weighting(x)
        ngen = x.num_edges()
        for run in range(16):
            gens = []
            for _ in range(rng.randint(1, 3)):
                if run % 2 == 0:
                    g = _random_chunk_word(rng, x, rng.randrange(x.num_cells()))
                    g = Word(tuple(l for l in g.letters if abs(l) <= ngen))
                    g = free_reduce(g)
                else:
                    letters = [rng.choice([s * g for g in range(1, ngen + 1)
                                           for s in (1, -1)])
                               for _ in range(rng.randint(1, 8))]
                    g = free_reduce(Word(tuple(letters)))
                if g.letters:
                    gens.append(g)
            if not gens:
                continue
            m = reference_bouquet_map(x, gens)
            value = m.domain.euler_characteristic() + map_perimeter(w, m)
            res = reduce_map(m, w)
            for step in res.trace.steps:
                new_value = step.euler_characteristic() + step.perimeter
                assert new_value <= value, (pres.generators, step)
                value = new_value
                steps_seen += 1
    report("11 euler-perimeter monotone", steps_seen > 100,
           f"steps checked={steps_seen}")


def test_12_weak_mode_divergence():
    m = fixtures.ladder_start_map()
    w = unit_weighting(m.codomain)
    weak = reduce_map(m, w, "weak", step_limit=50, verify=True)
    strict = reduce_map(m, w, "strict", verify=True)
    weak_ok = (
        weak.exhausted
        and len(weak.trace.steps) == 50
        and all(s.perimeter == 8 for s in weak.trace.steps)
    )
    strict_ok = (
        not strict.exhausted
        and any(s.kind == "attach-complete" for s in strict.trace.steps)
        and strict.trace.steps[-1].perimeter < 8
    )
    report("12 weak-mode divergence", weak_ok and strict_ok,
           f"weak steps={len(weak.trace.steps)} strict steps="
           f"{[s.kind for s in strict.trace.steps]}")
