"""Set-up time, measured in a fresh interpreter.

Usage: python3 -I -S setup_probe.py <source dir>, with the input-file texts
on standard input separated by form feeds.  Prints the processor seconds
from before ``import perifold`` to the parsed complexes and weightings (the
import and ``perifold.cli.parse_input_file`` on every text, nothing else),
then the median processor seconds of the reference task in speed.py, run
afterwards in the same interpreter.

Processor time, not wall time: set-up is single-threaded and waits on
nothing but the page cache, so the two agree on an idle machine, and
processor time leaves out the time other tenants of a shared host take.
``-S`` keeps site-packages out, so every module perifold needs is counted.
"""

import os
import sys
import time

REFERENCE_PASSES = 15


def main() -> None:
    texts = sys.stdin.read().split("\f")
    t0 = time.process_time()
    sys.path.insert(0, sys.argv[1])
    import perifold.cli

    files = [perifold.cli.parse_input_file(t) for t in texts]
    elapsed = time.process_time() - t0
    if not all(f.complex.num_cells() for f in files):
        sys.exit("setup_probe: an input file has no 2-cell")
    # imported only now, so that no module perifold needs is loaded before t0
    import statistics

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed

    ref = statistics.median(speed.reference_seconds() for _ in range(REFERENCE_PASSES))
    print(repr(elapsed), repr(ref))


if __name__ == "__main__":
    main()
