#!/usr/bin/env python3
"""Measure how the reduction loop scales with the total generator length,
and the certificate with the relator length.

Reduces random bouquets over <a, b | (aab)^9> at a ladder of total lengths,
as `subgroup_presentation` does (a fresh bouquet domain per timed call,
reduced in place and built into a map once), and prints step counts and
wall-clock times; the step count should stay linear in the input length
and the wall clock at worst quadratic.  Folding is near-linear, so wall/L
stays about flat while folds dominate.

Then answers `member` on the genus-2 surface group for products of k
relator conjugates (word length L); the attachment search takes most of
their time and is quadratic, so wall/L^2 stays about flat.

Then intersects two subgroups of the genus-2 surface group, each generated
by two random reduced words of length n (total generator length L = 4n);
nearly every attachment scan there finds nothing.

Then runs the weak reduction of H = <b^-1 a^2> with the whisker b^3 on the
torus, timed the same way, which builds a square ladder until its step
limit N, and prints the wall clock per step.  A step of the ladder changes
the domain locally and the attachment scan reads the blocked squares from
the present cycles; one scan counts the lift of each (cell, start, root)
once, but us/step still grows with N, as each scan starts over from every
present cycle and root.

Then builds the piece table and the strict certificate of <a, b | (aab)^k>
for a ladder of exponents k (relator length m = 3k) and prints both times
and their ratio to m^2; the piece table is quadratic in m, so its ms/m^2
stays about flat.
"""

import argparse

from perifold.complexes import standard_complex
from perifold.experiments import (
    best_time,
    measure_certificate_scaling,
    measure_intersect_scaling,
    measure_member_scaling,
    measure_reduction_scaling,
    reduce_bouquet,
)
from perifold.fixtures import aab_power_presentation, surface_presentation, torus_presentation
from perifold.weights import unit_weighting
from perifold.words import Word


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
    print(f"{'L':>6} {'steps':>7} {'steps/L':>8} {'wall (ms)':>10} {'wall/L (us)':>12}"
          f" {'wall/L^2 (us)':>14}")
    for length in args.lengths:
        s = measure_reduction_scaling(
            pres, [length], args.seeds,
            parts=max(2, length // 5), best_of=args.best_of,
        )[0]
        print(f"{s.total_length:>6} {s.steps:>7} {s.steps / s.total_length:>8.3f}"
              f" {s.seconds * 1e3:>10.2f} {s.seconds / s.total_length * 1e6:>12.2f}"
              f" {s.seconds / s.total_length ** 2 * 1e6:>14.3f}")
    print()
    print(f"{'k':>4} {'L':>6} {'steps':>7} {'wall (ms)':>10} {'wall/L^2 (us)':>14}")
    samples = measure_member_scaling(surface_presentation(2, True), args.conjugates,
                                     args.seeds, args.best_of)
    for k, s in zip(args.conjugates, samples):
        print(f"{k:>4} {s.total_length:>6} {s.steps:>7} {s.seconds * 1e3:>10.2f}"
              f" {s.seconds / s.total_length ** 2 * 1e6:>14.3f}")
    print()
    print(f"{'n':>4} {'L':>6} {'steps':>7} {'wall (ms)':>10} {'wall/L (us)':>12}"
          f" {'wall/L^2 (us)':>14}")
    samples = measure_intersect_scaling(surface_presentation(2, True), args.intersect,
                                        args.seeds, args.best_of)
    for n, s in zip(args.intersect, samples):
        print(f"{n:>4} {s.total_length:>6} {s.steps:>7} {s.seconds * 1e3:>10.2f}"
              f" {s.seconds / s.total_length * 1e6:>12.2f}"
              f" {s.seconds / s.total_length ** 2 * 1e6:>14.3f}")
    print()
    print(f"{'N':>5} {'steps':>7} {'wall (ms)':>10} {'wall/step (us)':>15}")
    torus = standard_complex(torus_presentation())
    w = unit_weighting(torus)
    h, u = [Word((-2, 1, 1))], Word((2, 2, 2))  # b^-1 a^2; b^3
    for n in args.ladder:
        seconds, (trace, _m) = best_time(lambda: reduce_bouquet(torus, w, h, u, "weak", n),
                                         args.best_of)
        steps = len(trace.steps)
        print(f"{n:>5} {steps:>7} {seconds * 1e3:>10.2f} {seconds / max(1, steps) * 1e6:>15.1f}")
    print()
    print(f"{'k':>4} {'m':>5} {'pieces (ms)':>12} {'certificate (ms)':>17}"
          f" {'pieces/m^2 (us)':>16} {'certificate/m^2 (us)':>21}")
    samples = measure_certificate_scaling(
        [aab_power_presentation(k) for k in args.certificate_exponents], args.best_of)
    for k, c in zip(args.certificate_exponents, samples):
        m = c.relator_length
        print(f"{k:>4} {m:>5} {c.pieces_seconds * 1e3:>12.2f} {c.certificate_seconds * 1e3:>17.2f}"
              f" {c.pieces_seconds / m ** 2 * 1e6:>16.3f}"
              f" {c.certificate_seconds / m ** 2 * 1e6:>21.3f}")


if __name__ == "__main__":
    main()
