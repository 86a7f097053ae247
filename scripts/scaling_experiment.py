#!/usr/bin/env python3
"""Measure how the reduction loop scales with the total generator length.

Reduces random bouquets over <a, b | (aab)^9> at a ladder of total lengths
and prints step counts and wall-clock times; the step count should stay
linear in the input length and the wall clock at worst quadratic.  Folding
is near-linear, so wall/L stays about flat while folds dominate.
"""

import argparse

from perifold.experiments import measure_reduction_scaling
from perifold.fixtures import aab_power_presentation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lengths", type=int, nargs="+", default=[20, 40, 80, 160, 320])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    ap.add_argument("--exponent", type=int, default=9)
    ap.add_argument("--best-of", type=int, default=3)
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


if __name__ == "__main__":
    main()
