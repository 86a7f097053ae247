import json

import cli_corpus
import corpus


def built_as_stored(half) -> dict:
    """The corpus half as built, after checking that no case and no
    known-wrong tag of it moved from the committed file;
    `python scripts/answer_corpus.py` regenerates both halves and prints
    the cases that moved."""
    stored = json.loads(half.PATH.read_text())
    got = half.build()
    moved = sorted(case for case in stored["cases"].keys() | got["cases"].keys()
                   if stored["cases"].get(case) != got["cases"].get(case))
    assert not moved, f"{len(moved)} cases moved, the first: {moved[:5]}"
    assert got.get("known_wrong") == stored.get("known_wrong")
    return got


def test_answers_match_the_corpus():
    # every answer, trace and final map of the library cases is what the
    # committed file pins
    got = built_as_stored(corpus)
    # three operations at four step limits over twelve complexes, and the
    # four torus fault words of `member` at every limit, tagged; per
    # complex, two fold cases and three weak reductions per input; and
    # `magnus_intersect` per input over two torus and three Z^3 subgraphs,
    # and its fixed torus case, tagged
    assert len(corpus.COMPLEXES) == 12
    assert len(got["cases"]) == (3 * 4 * 12 * corpus.INPUTS + 4 * 4 + 12 * 5 * corpus.INPUTS
                                 + 5 * corpus.INPUTS + 1)
    assert sum(case.startswith("member_with_trace/torus/") for case in got["known_wrong"]) >= 16
    assert "magnus_intersect/torus/fault/subgraph=0" in got["known_wrong"]


def test_cli_answers_match_the_corpus():
    # every exit code, standard output and error and trace file of the CLI
    # cases is what the committed file pins: the README's commands, then
    # per input file `info` and `check` plain and with --json and each run
    # in five variants with and without --force, then the refusals
    got = built_as_stored(cli_corpus)
    commands = len(cli_corpus.readme_example()[1])
    runs = sum(map(len, cli_corpus.RUNS.values()))
    assert len(got["cases"]) == (commands + 4 * len(cli_corpus.INPUTS) + 2 * 5 * runs
                                 + len(cli_corpus.REFUSALS))
