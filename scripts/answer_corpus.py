#!/usr/bin/env python3
"""Regenerate the answer corpus, `tests/data/answer_corpus.json`, and print
every case whose digest or known-wrong tag changed, was added or is gone.

    python scripts/answer_corpus.py

The cases, their fixed inputs and their rendering are in `tests/corpus.py`;
`tests/test_answer_corpus.py` checks the file against them.  A change that
moves any case should say which and why.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402  (tests/corpus.py)


def main() -> None:
    old = json.loads(corpus.PATH.read_text()) if corpus.PATH.exists() else {}
    new = corpus.build()
    changed = 0
    for part in ("cases", "known_wrong"):
        was, now = old.get(part, {}), new[part]
        for case in sorted(was.keys() | now.keys()):
            if was.get(case) != now.get(case):
                state = "added" if case not in was else "gone" if case not in now else "changed"
                print(f"{part}: {state}: {case}")
                changed += 1
    corpus.PATH.parent.mkdir(exist_ok=True)
    corpus.PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(new['cases'])} cases, {len(new['known_wrong'])} known wrong, {changed} changed")


if __name__ == "__main__":
    main()
