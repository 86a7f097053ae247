"""The CLI half of the answer corpus: `perifold.cli.main` run in process on
fixed command lines, each case pinned by the sha256 of a canonical JSON
rendering of its argv, exit code, standard output, standard error and the
files it wrote (its `--trace` file), so that a change to any output of the
command line shows as a changed case.

Every case runs in one temporary working directory that holds the input
files under fixed names, and names them and its trace file by relative
paths, so no output depends on where the corpus is built.  A file a case
writes is read and removed before the next case runs.

Cases:
- every `perifold ...` line of the README's CLI section, on the README's
  example input file;
- on each input file of `INPUTS` (the input texts of `tests/test_cli.py`,
  the torus and the genus-2 surface): `info` and `check` plain and with
  `--json`, and each `subgroup`, `member` and `intersect` run of `RUNS`
  plain, with `--json`, with `--trace`, and with `--step-limit` 0 and 3,
  each with and without `--force`;
- the refusals of `REFUSALS`, with exit code 2 (an invalid input file or
  option value) or 3 (a missing certificate).

`tests/data/cli_corpus.json` holds the digests; `scripts/answer_corpus.py`
regenerates it with the library half and prints the cases that changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from perifold.cli import main
from fixtures import AAB9, FGIP, FREE, GENUS2, MODIFY, TORUS, ZZZ

PATH = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
README = Path(__file__).resolve().parents[1] / "README.md"
INPUTS = {"zzz.pf": ZZZ, "free.pf": FREE, "aab9.pf": AAB9, "modify.pf": MODIFY,
          "fgip.pf": FGIP, "torus.pf": TORUS, "genus2.pf": GENUS2}
# per input file: the options of its `subgroup`, `member` and `intersect` runs
RUNS = {
    "zzz.pf": [["subgroup", "--gens", "a b, c"],
               ["member", "--gens", "a, b c", "--word", "c b a c^-1 a^-1"],
               ["member", "--gens", "a^2, b", "--word", "a b a^-1 b^-1"],
               ["intersect", "--gens-h", "a, b", "--gens-k", "a b, c"]],
    "free.pf": [["subgroup", "--gens", "@H"],
                ["member", "--gens", "@H", "--word", "a b"],
                ["member", "--gens", "@H", "--word", "a b a^-1"],
                ["member", "--gens", "@H", "--word", "a a^-1"],
                ["member", "--gens", "@H", "--word", ""],
                ["member", "--gens", "@H", "--word", "  "],
                ["intersect", "--gens-h", "a b a, a b b, a a", "--gens-k", "a b, b a"]],
    "aab9.pf": [["subgroup", "--gens", "a a b a a b a, a b a"],
                ["member", "--gens", "a a b a a b a, a b a", "--word", "a b a"],
                ["member", "--gens", "", "--word", "( a a b )^9"],
                ["intersect", "--gens-h", "a b", "--gens-k", "b a^2"]],
    "modify.pf": [["subgroup", "--gens", "a b, f"],
                  ["member", "--gens", "a, f", "--word", "f a f^-1"],
                  ["intersect", "--gens-h", "a, f", "--gens-k", "a b"]],
    "fgip.pf": [["subgroup", "--gens", "a"],
                ["member", "--gens", "a", "--word", "t a t^-1"],
                ["intersect", "--gens-h", "a", "--gens-k", "t a t^-1"]],
    "torus.pf": [["subgroup", "--gens", "a^2, a b"],
                 ["member", "--gens", "a^2, b", "--word", "b a^2 b^-1"],
                 ["member", "--gens", "", "--word", "a a b b a^-1 a^-1 b^-1 b^-1"],
                 ["intersect", "--gens-h", "a^2", "--gens-k", "a^3"]],
    "genus2.pf": [["subgroup", "--gens", "a1 b1, a2"],
                  ["member", "--gens", "a1", "--word", "b1 a1 b1^-1"],
                  ["member", "--gens", "", "--word", "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"],
                  ["intersect", "--gens-h", "a1, b1", "--gens-k", "a1 b1"]],
}
VARIANTS = ([], ["--json"], ["--trace", "trace.log"], ["--step-limit", "0", "--trace", "trace.log"],
            ["--step-limit", "3", "--json", "--trace", "trace.log"])
# (file name, input text or None for one of INPUTS, argv after the file name)
REFUSALS = [
    ("unknown.pf", "gens a b\nrel a c\n", ["info"]),
    ("exponent.pf", "gens a b\nrel a b^x\n", ["info"]),
    ("paren.pf", "gens a b\nrel ( a b\n", ["info"]),
    ("torus.pf", None, ["subgroup", "--gens", "a c"]),
    ("torus.pf", None, ["member", "--gens", "a", "--word", "a^x"]),
    ("torus.pf", None, ["intersect", "--gens-h", "( a b", "--gens-k", "a"]),
    ("twice.pf", "gens a b\nwords H: a\nwords H: b\n", ["member", "--gens", "@H", "--word", "b"]),
    ("aab9.pf", None, ["info", "--p", "1"]),
    ("aab9.pf", None, ["info", "--alpha", "0"]),
    ("free.pf", None, ["subgroup", "--gens", "@H", "--step-limit", "-1"]),
    ("free.pf", None, ["member", "--gens", "@H", "--word", "a b", "--step-limit", "-1"]),
    ("free.pf", None, ["intersect", "--gens-h", "a", "--gens-k", "b", "--step-limit", "-1"]),
    ("free.pf", None, ["subgroup", "--gens", "@H", "--trace", "missing/trace.log"]),
    ("free.pf", None, ["member", "--gens", "@H", "--word", "b", "--trace", "missing/trace.log"]),
    ("free.pf", None, ["intersect", "--gens-h", "a", "--gens-k", "b",
                       "--trace", "missing/trace.log"]),
    ("nofile.pf", None, ["info"]),
]  # the missing certificates are the `fgip.pf` runs without `--force`


def readme_example():
    """The README's CLI example input file and the argv of each of its
    `perifold ...` lines, after the program name."""
    blocks = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")
    example, commands = blocks[1], blocks[3]
    assert commands.startswith("sh\n")
    lines = [shlex.split(line, comments=True) for line in commands.splitlines()[1:]]
    lines = [argv for argv in lines if argv]
    assert lines and all(argv[0] == "perifold" for argv in lines)
    return example, [argv[1:] for argv in lines]


def command_lines():
    """Yield (file name, input text or None, argv) per case, in order."""
    example, commands = readme_example()
    for argv in commands:
        yield "input.pf", example, argv
    for name in INPUTS:
        for argv in (["info"], ["info", "--json"], ["check"], ["check", "--json"]):
            yield name, None, [argv[0], name, *argv[1:]]
        for run in RUNS[name]:
            for force in ([], ["--force"]):
                for variant in VARIANTS:
                    yield name, None, [run[0], name, *run[1:], *force, *variant]
    for name, text, (command, *options) in REFUSALS:
        yield name, text, [command, name, *options]


def _run(argv) -> dict:
    before = set(Path().iterdir())
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = {}
    for path in sorted(set(Path().iterdir()) - before):
        written[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": written}


def cases():
    """Yield (case id, rendering) per case: the id is the command line."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in INPUTS.items():
                Path(name).write_text(text, encoding="utf-8")
            for name, text, argv in command_lines():
                if text is not None:
                    Path(name).write_text(text, encoding="utf-8")
                yield shlex.join(["perifold", *argv]), _run(argv)
        finally:
            os.chdir(home)


def build() -> dict:
    """The CLI corpus as stored: case id -> digest."""
    return {"cases": {case: hashlib.sha256(json.dumps(rendered, sort_keys=True).encode())
                      .hexdigest() for case, rendered in cases()}}
