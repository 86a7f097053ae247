#!/usr/bin/env python3
"""Measure how the reduction loop scales with the total generator length,
and the certificate with the relator length.

Reduces random bouquets over <a, b | (aab)^9> at a ladder of total lengths,
as `subgroup_presentation` does (a fresh bouquet domain per timed call,
reduced in place with the cyclic collector paused and built into a map
once: `reduce_bouquet` of `tests/fixtures.py`), and prints step counts and
wall-clock times; the step count should stay linear in the input length
and the wall clock at worst quadratic.  While folds dominate, wall/L grows
slowly with L: a merge moves the shorter of two end lists into the longer,
and a root merged away stays in the `leaving` lists, skipped, until its
slot is reused or the list compacted, so no fold re-sorts or deletes from
the middle of a list of the domain's size.  --lengths 2000 8000 32000
128000 shows what growth is left, about 2x over that range.

Then answers `member` on the genus-2 surface group for products of k
relator conjugates (word length L); the attachment search takes most of
their time and is quadratic, so wall/L^2 stays about flat.

Then intersects two subgroups of the genus-2 surface group, each generated
by two random reduced words of length n (total generator length L = 4n);
nearly every attachment scan there finds nothing.

Then runs the weak reduction of H = <b^-1 a^2> with the whisker b^3 on the
torus, reduced and timed the same way, which builds a square ladder until
its step limit N, and prints the wall clock per step.  A step of the
ladder changes the domain locally, and the attachment scan skips a lift
uncounted when the side it would start is present at the edge of its
first letter; one scan counts the lift of each (cell, start, root) once,
but us/step still grows with N, as each scan walks the lifts at every
root again.

Then builds the piece table and the strict certificate of <a, b | (aab)^k>
for a ladder of exponents k (relator length m = 3k) and prints both times
and their ratio to m^2; the piece table is quadratic in m, so its ms/m^2
stays about flat.
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fixtures import (  # noqa: E402  (tests/fixtures.py)
    aab_power_presentation,
    measure_reduction_scaling,
    random_reduced_word,
    reduce_bouquet,
    relator_conjugate_product,
    surface_presentation,
    torus_presentation,
)
from perifold.complexes import compute_pieces, standard_complex  # noqa: E402
from perifold.criteria import find_certificate  # noqa: E402
from perifold.subgroups import intersect, member_with_trace  # noqa: E402
from perifold.weights import unit_weighting  # noqa: E402
from perifold.words import Word  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lengths", type=int, nargs="+", default=[20, 40, 80, 160, 320])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    ap.add_argument("--exponent", type=int, default=9)
    ap.add_argument("--best-of", type=int, default=3)
    ap.add_argument("--conjugates", type=int, nargs="+", default=[8, 32, 128])
    ap.add_argument("--intersect", type=int, nargs="+", default=[8, 16, 32, 64],
                    help="generator lengths n of the genus-2 intersect series")
    ap.add_argument("--ladder", type=int, nargs="+", default=[50, 100, 200, 400],
                    help="step limits N of the weak torus ladder series")
    ap.add_argument("--certificate-exponents", type=int, nargs="+", default=[9, 18, 36, 72])
    args = ap.parse_args()
    pres = aab_power_presentation(args.exponent)
    best_of = max(1, args.best_of)
    seeds = max(1, len(args.seeds))
    print(f"{'L':>6} {'steps':>7} {'steps/L':>8} {'wall (ms)':>10} {'wall/L (us)':>12}"
          f" {'wall/L^2 (us)':>14}")
    for length in args.lengths:
        [(_, steps, seconds)] = measure_reduction_scaling(
            pres, [length], args.seeds,
            parts=max(2, length // 5), best_of=best_of,
        )
        print(f"{length:>6} {steps:>7} {steps / length:>8.3f}"
              f" {seconds * 1e3:>10.2f} {seconds / length * 1e6:>12.2f}"
              f" {seconds / length ** 2 * 1e6:>14.3f}")
    print()
    # member with no generators, so every step attaches or folds; per k the
    # mean word length and step count, and the mean over the seeds of the
    # best wall clock
    print(f"{'k':>4} {'L':>6} {'steps':>7} {'wall (ms)':>10} {'wall/L^2 (us)':>14}")
    genus2 = surface_presentation(2, True)
    x = standard_complex(genus2)
    w = unit_weighting(x)
    find_certificate(w, "weak")  # built once per weighting, before any timing
    for k in args.conjugates:
        length = steps = 0
        seconds = 0.0
        for seed in args.seeds:
            u = relator_conjugate_product(random.Random(seed), genus2.relators[0],
                                          len(genus2.generators), k)
            best = float("inf")
            for _ in range(best_of):
                t0 = time.perf_counter()
                _answer, trace = member_with_trace(x, w, [], u)
                best = min(best, time.perf_counter() - t0)
            length += len(u)
            steps += len(trace.steps)
            seconds += best
        length, steps, seconds = length // seeds, steps // seeds, seconds / seeds
        print(f"{k:>4} {length:>6} {steps:>7} {seconds * 1e3:>10.2f}"
              f" {seconds / length ** 2 * 1e6:>14.3f}")
    print()
    # per n the mean step count and the mean over the seeds of the best wall
    # clock
    print(f"{'n':>4} {'L':>6} {'steps':>7} {'wall (ms)':>10} {'wall/L (us)':>12}"
          f" {'wall/L^2 (us)':>14}")
    x = standard_complex(genus2)
    w = unit_weighting(x)
    find_certificate(w, "sc-strict")  # built once per weighting, before any timing
    for n in args.intersect:
        steps = 0
        seconds = 0.0
        for seed in args.seeds:
            rng = random.Random(seed)
            h = [random_reduced_word(rng, len(genus2.generators), n) for _ in range(2)]
            k = [random_reduced_word(rng, len(genus2.generators), n) for _ in range(2)]
            best = float("inf")
            for _ in range(best_of):
                t0 = time.perf_counter()
                res = intersect(x, w, h, k)
                best = min(best, time.perf_counter() - t0)
            steps += len(res.trace.steps)
            seconds += best
        length, steps, seconds = 4 * n, steps // seeds, seconds / seeds
        print(f"{n:>4} {length:>6} {steps:>7} {seconds * 1e3:>10.2f}"
              f" {seconds / length * 1e6:>12.2f}"
              f" {seconds / length ** 2 * 1e6:>14.3f}")
    print()
    print(f"{'N':>5} {'steps':>7} {'wall (ms)':>10} {'wall/step (us)':>15}")
    torus = standard_complex(torus_presentation())
    w = unit_weighting(torus)
    h, u = [Word((-2, 1, 1))], Word((2, 2, 2))  # b^-1 a^2; b^3
    for n in args.ladder:
        seconds = float("inf")
        for _ in range(best_of):
            t0 = time.perf_counter()
            trace = reduce_bouquet(w, h, u, "weak", n)
            seconds = min(seconds, time.perf_counter() - t0)
        steps = len(trace.steps)
        print(f"{n:>5} {steps:>7} {seconds * 1e3:>10.2f} {seconds / max(1, steps) * 1e6:>15.1f}")
    print()
    # each repetition on a fresh complex and weighting, so that the
    # certificate reads no pieces, girths or verdict from a previous run's
    # cache
    print(f"{'k':>4} {'m':>5} {'pieces (ms)':>12} {'certificate (ms)':>17}"
          f" {'pieces/m^2 (us)':>16} {'certificate/m^2 (us)':>21}")
    for k in args.certificate_exponents:
        pres = aab_power_presentation(k)
        pieces = certificate = float("inf")
        for _ in range(best_of):
            x = standard_complex(pres)
            t0 = time.perf_counter()
            compute_pieces(x)
            t1 = time.perf_counter()
            find_certificate(unit_weighting(x), "strict")
            t2 = time.perf_counter()
            pieces, certificate = min(pieces, t1 - t0), min(certificate, t2 - t1)
        m = sum(len(r) for r in pres.relators)
        print(f"{k:>4} {m:>5} {pieces * 1e3:>12.2f} {certificate * 1e3:>17.2f}"
              f" {pieces / m ** 2 * 1e6:>16.3f}"
              f" {certificate / m ** 2 * 1e6:>21.3f}")


if __name__ == "__main__":
    main()
