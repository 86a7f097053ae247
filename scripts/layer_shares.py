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
call.  A last row counts the cyclic garbage collector's passes over the
bare round, per generation 0/1/2, and their share of the bare round and
wall milliseconds, timed through `gc.callbacks`.  A last line counts the
entries of `Domain.leaving` that the attachment scans of one more round
skipped as roots merged away since they were listed.  Report only: it
checks no answer and gates nothing.
"""

import argparse
import functools
import gc
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: imports perifold from this checkout)
import workloads  # noqa: E402

DOMAIN_STEPS = ("__init__", "fold_all", "identify", "compact", "add_arc", "add_packet",
                "remove_redundant", "repair", "augment", "to_map")


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


def collected(ops) -> tuple[float, list[int], float]:
    """The bare round's wall seconds, and the collector's passes during it
    per generation and their wall seconds."""
    passes = [0, 0, 0]
    spent = [0.0, 0.0]  # total, start of the pass under way

    def count(phase, info):
        if phase == "start":
            spent[1] = perf_counter()
        else:
            passes[info["generation"]] += 1
            spent[0] += perf_counter() - spent[1]

    gc.callbacks.append(count)
    try:
        bare = play(ops)
    finally:
        gc.callbacks.remove(count)
    return bare, passes, spent[0]


class CountedLeaving(dict):
    """A domain's `leaving` as `find_site` reads it: `get` gives a view of
    a list whose walks count the vertices they pass that are no longer
    roots, and `Domain.compact`, which indexes it, still changes the
    domain's own list in place."""

    def __init__(self, leaving, parent):
        super().__init__(leaving)
        self.parent, self.skipped = parent, 0

    def get(self, img, default=()):
        return CountedWalk(self, dict.get(self, img, default))


class CountedWalk:
    def __init__(self, leaving, roots):
        self.leaving, self.roots = leaving, roots

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        parent = self.leaving.parent
        for v in self.roots:
            self.leaving.skipped += parent[v] != v
            yield v


def skipped_entries(ops, engine) -> tuple[int, int]:
    """Over one round, the merged-away entries of `Domain.leaving` that
    the attachment scans skipped, and the number of scans; `find_site` is
    wrapped where `reduce_domain` looks it up."""
    scan, skipped = engine.find_site, []

    def counted(dom, mode="strict"):
        leaving = dom.leaving
        dom.leaving = walked = CountedLeaving(leaving, dom.parent)
        try:
            return scan(dom, mode)
        finally:
            dom.leaving = leaving
            skipped.append(walked.skipped)

    engine.find_site = counted
    try:
        play(ops)
    finally:
        engine.find_site = scan
    return sum(skipped), len(skipped)


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
    bare, passes, collecting = collected(ops)
    total, by_clock = timed(ops, named, list(vars(pf).values()))
    print(f"{args.workload} seed {args.seed}: one round of {len(ops)} operations,"
          f" {bare * 1e3:.1f} ms bare, {total * 1e3:.1f} ms wrapped")
    print(f"{'layer':<28} {'calls':>7} {'wall':>7} {'wall ms':>8}")
    for name, (calls, seconds) in by_clock.items():
        print(f"{name:<28} {calls:>7} {seconds / total:>7.1%} {seconds * 1e3:>8.1f}")
    name = "gc passes " + "/".join(map(str, passes)) + " (bare)"
    print(f"{name:<28} {sum(passes):>7} {collecting / bare:>7.1%} {collecting * 1e3:>8.1f}")
    skipped, scans = skipped_entries(ops, pf.engine)
    print(f"merged-away `leaving` entries skipped by {scans} scans: {skipped}")


if __name__ == "__main__":
    main()
