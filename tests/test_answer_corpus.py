import json

import corpus


def test_answers_match_the_corpus():
    # every answer, trace and final map of the corpus cases is what the
    # committed file pins; `python scripts/answer_corpus.py` regenerates it
    # and prints the cases that moved
    stored = json.loads(corpus.PATH.read_text())
    got = corpus.build()
    moved = sorted(case for case in stored["cases"].keys() | got["cases"].keys()
                   if stored["cases"].get(case) != got["cases"].get(case))
    assert not moved, f"{len(moved)} cases moved, the first: {moved[:5]}"
    assert got["known_wrong"] == stored["known_wrong"]
    # three operations at four step limits over four complexes, and the
    # four torus fault words of `member` at every limit, tagged; per
    # complex, two fold cases and three weak reductions per input; and
    # `magnus_intersect` per input over two torus and three Z^3 subgraphs,
    # and its fixed torus case, tagged
    assert len(got["cases"]) == (3 * 4 * 4 * corpus.INPUTS + 4 * 4 + 4 * 5 * corpus.INPUTS
                                 + 5 * corpus.INPUTS + 1)
    assert sum(case.startswith("member_with_trace/torus/") for case in got["known_wrong"]) >= 16
    assert "magnus_intersect/torus/fault/subgraph=0" in got["known_wrong"]
