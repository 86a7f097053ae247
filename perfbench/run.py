#!/usr/bin/env python3
"""Benchmark of perifold's decision procedures.

    python3 perfbench/run.py --workload fold|attach|member|intersect \\
        --seed N --seconds S --trace 0|1

One process, one thread, a closed loop: the next query is sent only after
the previous one returns.  The run repeats its workload's round of
operations (see workloads.py) until the timed loop has lasted --seconds,
checks every answer, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the same run is followed by one
traced round and the metrics are the per-layer ones (see tracing.py).
Times are scaled to the reference speed of speed.py; the wall-clock
figures as measured are printed too.  A copy of the result, with every
sample, goes to .perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 15  # timed fresh interpreters, after one that warms the bytecode cache
SPEED_WINDOW = 5  # reference passes whose median gives the speed for the next call


def load_program() -> types.SimpleNamespace:
    """Import perifold from the checkout's own sources, never from elsewhere."""
    package = SRC / "perifold"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no perifold sources at {package}")
    sys.path.insert(0, str(SRC))
    import perifold.cli
    import perifold.complexes
    import perifold.criteria
    import perifold.engine
    import perifold.maps
    import perifold.subgroups
    import perifold.weights
    import perifold.words

    if Path(perifold.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported perifold from {perifold.__file__}")
    return types.SimpleNamespace(
        cli=perifold.cli, complexes=perifold.complexes, criteria=perifold.criteria,
        engine=perifold.engine, maps=perifold.maps, subgroups=perifold.subgroups,
        weights=perifold.weights, words=perifold.words,
    )


def measure_setup(texts: list[str]) -> tuple[float, float]:
    """Median set-up time over fresh interpreters with a warm bytecode cache,
    scaled to the reference speed and as measured."""
    cmd = [sys.executable, "-I", "-S", str(HERE / "setup_probe.py"), str(SRC)]
    scaled, measured = [], []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, input="\f".join(texts), capture_output=True,
                              text=True, timeout=120, cwd=HERE)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        if k:
            setup, ref = map(float, proc.stdout.split()[-2:])
            scaled.append(setup * speed.REF_NOMINAL_S / ref)
            measured.append(setup)
    return statistics.median(scaled), statistics.median(measured)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: with n >= 100 samples at least n/10 lie
    above the 90th."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Times rounds of operations and checks their answers: the first round
    against the oracles, every later round against the first."""

    def __init__(self, rnd: workloads.Round):
        self.rnd = rnd
        self.recent_refs: collections.deque[float] = collections.deque(maxlen=SPEED_WINDOW)
        self.first_ok: list[bool] = []
        self.first_digest: list[object] = []
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0  # failures outside the known fault class

    def round(self) -> tuple[list[float], list[float], float]:
        """One round: (scaled latencies, measured latencies, loop seconds)."""
        gc.collect()
        ops = self.rnd.ops
        outputs, scaled, measured = [], [], []
        refs = self.recent_refs
        start = perf_counter()
        for op in ops:
            refs.append(speed.reference_seconds())
            scale = speed.REF_NOMINAL_S / statistics.median(refs)
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation counts as failed
                out = exc
            wall = perf_counter() - t0
            measured.append(wall)
            scaled.append(wall * scale)
            outputs.append(out)
        elapsed = perf_counter() - start
        digests = [self.rnd.digest(o) for o in outputs]
        if not self.first_ok:
            self.first_ok = self.rnd.check(outputs)
            self.first_digest = digests
            ok = self.first_ok
        else:
            ok = [good and d == d1 for good, d, d1
                  in zip(self.first_ok, digests, self.first_digest)]
        self.attempted += len(ops)
        for op, good in zip(ops, ok):
            if not good:
                self.failed += 1
                self.unexplained += not op.fault_class
        return scaled, measured, elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pf = load_program()
    names = workloads.INPUT_FILES[args.workload]
    texts = [workloads.INPUT_TEXTS[n] for n in names]
    setup = None if args.trace else measure_setup(texts)
    files = {n: pf.cli.parse_input_file(t) for n, t in zip(names, texts)}
    rnd = workloads.build_round(args.workload, args.seed, pf, files)
    runner = Runner(rnd)

    scaled: list[float] = []
    measured: list[float] = []
    loop_s = 0.0
    rounds = 0
    while rounds == 0 or loop_s < args.seconds:
        lat, wall, elapsed = runner.round()
        scaled += lat
        measured += wall
        loop_s += elapsed
        rounds += 1
    lat_ms = sorted(x * 1e3 for x in scaled)
    wall_ms = sorted(x * 1e3 for x in measured)

    report = {"workload": args.workload, "seed": args.seed, "round": rnd.notes,
              "round_ops": len(rnd.ops), "rounds": rounds, "samples": len(lat_ms),
              "loop_s": loop_s, "measured_p50_ms": statistics.median(wall_ms),
              "measured_p90_ms": percentile(wall_ms, 0.9)}
    if args.trace:
        tracer = tracing.Tracer(pf)
        tracer.install()
        try:
            for t in texts:
                pf.cli.parse_input_file(t)
            traced, _wall, _elapsed = runner.round()
        finally:
            tracer.restore()
        metrics = tracer.metrics()
        untraced_round = sum(scaled) / rounds
        metrics["trace.overhead_pct"] = ((sum(traced) / untraced_round - 1) * 100, "%")
    else:
        report["measured_setup_s"] = setup[1]
        metrics = {
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup[0], "s"),
        }
    result = {
        "correct": runner.unexplained == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**report, "latencies_ms": lat_ms, "measured_ms": wall_ms,
                               **result}, indent=1))
    print(f"{args.workload} seed {args.seed}: {'; '.join(rnd.notes)}")
    print(f"{rounds} rounds of {len(rnd.ops)} operations, {len(lat_ms)} samples"
          f" in {loop_s:.3f} s; {runner.failed} of {runner.attempted} failed")
    print(f"as measured: p50 {report['measured_p50_ms']:.3f} ms,"
          f" p90 {report['measured_p90_ms']:.3f} ms"
          + (f", set-up {setup[1]:.4f} s" if setup else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
