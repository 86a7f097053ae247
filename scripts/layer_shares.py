#!/usr/bin/env python3
"""Share of one perfbench round spent in each engine layer.

    python scripts/layer_shares.py --workload intersect --seed 1

Builds the round of the given workload and seed from `perfbench/workloads.py`
(imported as it stands, writing no bytecode there), runs it once to warm
every cache, then once bare and once with each layer timed by a wrapper.
Prints the round's wall milliseconds, bare and wrapped, and per layer its
calls, its cumulative share of the wrapped round by the wall clock and its
wall milliseconds, so that two commits compare where a saving sits even
when the round itself got faster.  The wrappers cost two clock reads per
call.  Report only: it checks no answer and gates nothing.
"""

import argparse
import functools
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: imports perifold from this checkout)
import workloads  # noqa: E402

DOMAIN_STEPS = ("__init__", "fold_all", "identify", "add_arc", "add_packet", "remove_redundant",
                "repair", "augment", "to_map")


def layers(pf) -> dict[str, tuple[object, str]]:
    """Layer name -> (the class or module that holds it, attribute)."""
    named = {
        "engine.reduce_domain": (pf.engine, "reduce_domain"),
        "engine.find_site": (pf.engine, "find_site"),
        "engine.attach_site": (pf.engine, "attach_site"),
        "engine.extract_presentation": (pf.engine, "extract_presentation"),
        "maps.Domain.bouquet": (pf.maps.Domain, "bouquet"),
        "maps.based_fiber_product": (pf.maps, "based_fiber_product"),
    }
    named.update({f"maps.Domain.{step}": (pf.maps.Domain, step) for step in DOMAIN_STEPS})
    return named


def play(ops) -> float:
    t0 = perf_counter()
    for op in ops:
        op.call()
    return perf_counter() - t0


def timed(ops, named, modules) -> tuple[float, dict[str, tuple[int, float]]]:
    """The wrapped round's wall seconds, and per layer (calls, cumulative
    wall seconds), each layer wrapped wherever it is looked up; a call made
    inside a call of the same layer counts in neither."""
    calls = dict.fromkeys(named, 0)
    seconds = dict.fromkeys(named, 0.0)
    undo = []

    def wrap(name, fn):
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
                calls[name] += 1
                depth[0] -= 1
        return wrapper

    for name, (owner, attr) in named.items():
        fn = getattr(owner, attr)
        wrapped = wrap(name, fn)
        holders = [owner] if isinstance(owner, type) else [
            m for m in modules if getattr(m, attr, None) is fn]
        for holder in holders:
            undo.append((holder, attr, vars(holder)[attr]))  # a classmethod as stored, unbound
            setattr(holder, attr, wrapped)
    try:
        total = play(ops)
    finally:
        for holder, attr, fn in reversed(undo):
            setattr(holder, attr, fn)
    return total, {name: (calls[name], seconds[name]) for name in named}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    pf = run.load_program()
    names = workloads.INPUT_FILES[args.workload]
    files = {n: pf.cli.parse_input_file(workloads.INPUT_TEXTS[n]) for n in names}
    ops = workloads.build_round(args.workload, args.seed, pf, files).ops
    named = layers(pf)
    bare = play(ops)
    total, by_clock = timed(ops, named, list(vars(pf).values()))
    print(f"{args.workload} seed {args.seed}: one round of {len(ops)} operations,"
          f" {bare * 1e3:.1f} ms bare, {total * 1e3:.1f} ms wrapped")
    print(f"{'layer':<28} {'calls':>7} {'wall':>7} {'wall ms':>8}")
    for name, (calls, seconds) in by_clock.items():
        print(f"{name:<28} {calls:>7} {seconds / total:>7.1%} {seconds * 1e3:>8.1f}")


if __name__ == "__main__":
    main()
