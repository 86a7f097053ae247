#!/usr/bin/env python3
"""Regenerate the answer corpus, `tests/data/answer_corpus.json` (the
library half) and `tests/data/cli_corpus.json` (the CLI half), and print
every case whose digest or known-wrong tag changed, was added or is gone.

    python scripts/answer_corpus.py

The cases, their fixed inputs and their rendering are in `tests/corpus.py`
and `tests/cli_corpus.py`; `tests/test_answer_corpus.py` checks the files
against them.  A change that moves any case should say which and why.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import cli_corpus  # noqa: E402  (tests/cli_corpus.py)
import corpus  # noqa: E402  (tests/corpus.py)


def main() -> None:
    for half in (corpus, cli_corpus):
        old = json.loads(half.PATH.read_text()) if half.PATH.exists() else {}
        new = half.build()
        changed = 0
        for part in sorted(new):
            was, now = old.get(part, {}), new[part]
            for case in sorted(was.keys() | now.keys()):
                if was.get(case) != now.get(case):
                    state = "added" if case not in was else "gone" if case not in now else "changed"
                    print(f"{half.PATH.name}: {part}: {state}: {case}")
                    changed += 1
        half.PATH.parent.mkdir(exist_ok=True)
        half.PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        tags = f", {len(new['known_wrong'])} known wrong" if "known_wrong" in new else ""
        print(f"{half.PATH.name}: {len(new['cases'])} cases{tags}, {changed} changed")


if __name__ == "__main__":
    main()
