#!/usr/bin/env python3
"""Survey the stock examples: perimeters, piece structure, and which
coherence/quasiconvexity certificates hold for each."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import fixtures  # noqa: E402  (tests/fixtures.py)
from perifold.complexes import standard_complex  # noqa: E402
from perifold.criteria import (  # noqa: E402
    check_few_occurrences,
    check_one_relator_torsion,
    check_sc_weight,
)
from perifold.weights import cell_weight, edge_perimeters, unit_weighting  # noqa: E402


def survey(name, pres, weighting_of=None):
    x = standard_complex(pres)
    w = weighting_of(x) if weighting_of else unit_weighting(x)
    per = edge_perimeters(w)
    print(f"== {name}")
    print(f"   generators={pres.generators}")
    print(f"   edge perimeters={per}")
    print(f"   cell weights={[cell_weight(w, c) for c in range(x.num_cells())]}")
    print(f"   max piece per cell={x.pieces.cell_max}")
    rows = []
    one_rel = check_one_relator_torsion(x, w)
    if one_rel.applicable:
        rows.append(("one-relator torsion", one_rel.holds, one_rel.conclusion))
    for variant in ("C4T4", "C6T3"):
        for strict in (False, True):
            v = check_sc_weight(x, w, variant, strict=strict)
            if v.applicable:
                rows.append((v.criterion, v.holds, v.conclusion))
    few = check_few_occurrences(pres, x)
    rows.append((few.criterion, few.holds, few.conclusion))
    for crit, holds, conclusion in rows:
        print(f"   {crit:<18} holds={holds!s:<5} -> {conclusion}")
    print()


def main() -> None:
    survey("(aab)^3 one-relator power", fixtures.aab_power_presentation(3))
    survey("(aab)^9 one-relator power", fixtures.aab_power_presentation(9))
    survey("rank-2 free abelian", fixtures.torus_presentation())
    survey("orientable surface, genus 2", fixtures.surface_presentation(2, True))
    survey("nonorientable surface, genus 3", fixtures.surface_presentation(3, False))
    survey("five-letter one-relator, retooled", fixtures.modify_presentation(),
           fixtures.modify_weighting)
    survey("two-relator digit blocks (unit)", fixtures.two_relator_block_presentation())
    survey("two-relator digit blocks (1/3)", fixtures.two_relator_block_presentation(),
           lambda x: fixtures.two_relator_block_weighting(x, 1, 3))
    survey("four-letter single relator", fixtures.magnus_example_presentation())


if __name__ == "__main__":
    main()
