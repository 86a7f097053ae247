import json
import runpy
import sys
import warnings
from fractions import Fraction

import pytest

from perifold.cli import InputError, main, parse_input_file
from perifold.complexes import ComplexError, check_small_cancellation
from perifold.engine import reduce_domain
from perifold.maps import Domain
from perifold.weights import edge_perimeters
from perifold.words import ParseError, parse_word

from cli_corpus import readme_example
from fixtures import AAB9, FGIP, FREE, GENUS2, TORUS, ZZZ


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_weight_directive_validation():
    with pytest.raises(InputError):
        parse_input_file("gens a\nrel a^3\nweights rel 1: 1 1 1\nweights gen a 2")
    with pytest.raises(ParseError):
        parse_input_file("gens a\nrel a^3\nweights rel 1: 1 1")
    with pytest.raises(InputError):
        parse_input_file("gens a\nrel a^3\nrel a^4\nweights rel 1: 1 1 1")
    f = parse_input_file("gens a b\nrel a b a^-1 b^-1\nweights gen a 2")
    assert edge_perimeters(f.weighting) == [4, 2]


def test_repeated_directives_are_refused():
    # the second line would otherwise replace the first without a word
    for text, line, why in (
            ("gens a b\nwords H: a\nwords H: b", 3, "duplicate word list 'H'"),
            ("gens a\nrel a^3\nweights gen a 2\nweights gen a 3", 4,
             "duplicate weights for generator 'a'"),
            ("gens a\nrel a^3\nweights gen a 2\nweights gen a 2", 4,
             "duplicate weights for generator 'a'")):
        with pytest.raises(ParseError, match=why) as caught:
            parse_input_file(text)
        assert caught.value.line == line
    f = parse_input_file("gens a b\nwords H: a\nwords K: a\nweights gen a 2\nweights gen b 3")
    assert sorted(f.word_lists) == ["H", "K"]


def test_cli_refuses_repeated_directives(tmp_path, capsys):
    # `member` read `words H: b` alone and answered True for b
    path = write(tmp_path, "twice.pf", "gens a b\nwords H: a\nwords H: b\n")
    assert rejected(capsys, ["member", path, "--gens", "@H", "--word", "b"],
                    "line 3, column 1: duplicate word list 'H'")
    path = write(tmp_path, "weights.pf", "gens a b\nrel a b a^-1 b^-1\n"
                                         "weights gen a 2\nweights gen a 3\n")
    assert rejected(capsys, ["info", path], "line 4, column 1: duplicate weights")


def test_cmd_info_weighted_values(tmp_path, capsys):
    path = write(tmp_path, "zzz.pf", ZZZ)
    assert main(["info", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["edge_perimeters"] == {"a": 5, "b": 12, "c": 5}
    assert [c["weight"] for c in data["cells"]] == [10, 3, 9]
    assert [c["exponent"] for c in data["cells"]] == [1, 1, 1]


def test_cmd_info_aab(tmp_path, capsys):
    path = write(tmp_path, "aab.pf", "gens a b\nrel ( a a b )^3\n")
    assert main(["info", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["edge_perimeters"] == {"a": 6, "b": 3}
    assert data["cells"][0]["exponent"] == 3


def test_cmd_info_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.pf", "gens a\nrel b\n")
    assert main(["info", path]) == 2


def test_cmd_info_power_too_long(tmp_path, capsys, bounded_power):
    for rel in ("a^1000000000000", "((a)^100000)^100000"):
        path = write(tmp_path, "huge.pf", f"gens a\nrel {rel}\n")
        assert main(["info", path]) == 2
        assert "line 2" in capsys.readouterr().err


def test_cmd_info_deep_nesting(tmp_path, capsys):
    depth = 3000
    deep = write(tmp_path, "deep.pf", "gens a b\nrel " + "(" * depth + "a a b" + ")" * depth + "\n")
    assert main(["info", deep, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cells"][0]["boundary"] == "a^2 b"
    open_ = write(tmp_path, "open.pf", "gens a\nrel " + "(" * depth + "a\n")
    assert main(["info", open_]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cmd_check_exit_codes(tmp_path, capsys):
    surf = write(tmp_path, "s3.pf", "gens a1 a2 a3\nrel a1^2 a2^2 a3^2\n")
    assert main(["check", surf, "--criterion", "sc-c4t4", "--strict", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] and data["conclusion"] == "both"

    uv = write(tmp_path, "uv.pf",
               "gens 1 2 3 4 5 6 7 8\n"
               "rel 1 4 3 7 2 5 4 8 3 6 5 1 4 7 6 2 5 8 7 3 6 1 8 4 7 2 1 5 8 3 2 6\n"
               "rel 1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 7 7 7 7 8 8 8 8\n")
    assert main(["check", uv, "--criterion", "sc-c4t4", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["holds"] and data["witnesses"]

    one = write(tmp_path, "n1.pf", "gens a b\nrel a b\n")
    assert main(["check", one, "--criterion", "one-relator-torsion"]) == 3
    capsys.readouterr()


def test_cmd_check_torsion_with_a_period_of_one_letter(tmp_path, capsys):
    # no subpath is shorter than the period a, so the bound holds vacuously
    path = write(tmp_path, "a5.pf", "gens a b\nrel a^5\n")
    assert main(["check", path, "--criterion", "one-relator-torsion", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "conclusion": "coherent", "criterion": "one-relator-torsion", "holds": True,
        "notes": ["period length 1: no subpath is shorter than the period"], "witnesses": []}


def test_cmd_check_all(tmp_path, capsys):
    path = write(tmp_path, "aab9.pf", AAB9)
    assert main(["check", path, "--criterion", "all", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = [v["criterion"] for v in data["verdicts"]]
    assert "one-relator-torsion" in names and "powers" in names


def test_cmd_member(tmp_path, capsys):
    path = write(tmp_path, "free.pf", FREE)
    assert main(["member", path, "--gens", "@H", "--word", "a b"]) == 0
    capsys.readouterr()
    assert main(["member", path, "--gens", "a^2,a b", "--word", "a^2 b"]) == 1
    capsys.readouterr()
    assert main(["member", path, "--gens", "@H", "--word", ""]) == 0
    capsys.readouterr()


def test_cmd_member_with_trace(tmp_path, capsys):
    path = write(tmp_path, "free.pf", FREE)
    trace = tmp_path / "trace.log"
    assert main(["member", path, "--gens", "@H", "--word", "a b a^-1", "--json",
                 "--trace", str(trace)]) == 1
    assert json.loads(capsys.readouterr().out) == {"member": False, "word": "a b a^-1"}
    f = parse_input_file(FREE)
    u = parse_word("a b a^-1", f.presentation.generators)
    want, _exhausted = reduce_domain(Domain.bouquet(f.weighting, f.word_lists["H"], u))
    assert want.to_lines()  # the whisker folds onto the bouquet
    assert trace.read_text().splitlines() == want.to_lines()
    # a word trivial in the free group is answered without a reduction
    assert main(["member", path, "--gens", "@H", "--word", "a a^-1",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert trace.read_text() == ""  # an empty trace is an empty file
    # as is the trace of a subgroup run that takes no step
    assert main(["subgroup", path, "--gens", "a", "--json", "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 0
    assert trace.read_text() == ""


def test_check_all_derives_pieces_and_girths_once(tmp_path, capsys, derivations):
    path = write(tmp_path, "aab9.pf", AAB9)
    assert main(["check", path, "--criterion", "all", "--json"]) == 0
    capsys.readouterr()
    assert derivations == {"pieces": 1, ("girth", 0): 1}


def test_cmd_subgroup_with_trace(tmp_path, capsys):
    path = write(tmp_path, "free.pf", FREE)
    trace = str(tmp_path / "trace.log")
    assert main(["subgroup", path, "--gens", "@H", "--trace", trace, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == ["x1", "x2"]
    assert data["relators"] == []
    assert data["trace_path"] == trace
    lines = (tmp_path / "trace.log").read_text().strip().splitlines()
    assert all(line.startswith("step=") for line in lines)


def test_cmd_subgroup_step_limit(tmp_path, capsys):
    path = write(tmp_path, "aab3.pf", "gens a b\nrel ( a a b )^3\n")
    gens = "a a b a a b a, a b a"
    trace = tmp_path / "trace.log"
    assert main(["subgroup", path, "--gens", gens, "--json"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["exhausted"] is False and full["steps"] == 9
    assert main(["subgroup", path, "--gens", gens, "--json", "--step-limit", "1",
                 "--trace", str(trace)]) == 4
    cut = json.loads(capsys.readouterr().out)
    assert cut["exhausted"] is True and cut["steps"] == 1
    assert trace.read_text().splitlines() == ["step=1 kind=fold P=45 edges=9"]
    # a limit the run does not reach changes nothing
    assert main(["subgroup", path, "--gens", gens, "--json", "--step-limit", "9"]) == 0
    assert json.loads(capsys.readouterr().out) == full


def test_cmd_member_step_limit(tmp_path, capsys):
    path = write(tmp_path, "aab3.pf", "gens a b\nrel ( a a b )^3\n")
    gens, u = "a a b a a b a, a b a", "a b a"
    trace = tmp_path / "trace.log"
    assert main(["member", path, "--gens", gens, "--word", u, "--json",
                 "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True, "word": u}
    full = trace.read_text().splitlines()
    assert len(full) == 12
    # the endpoints are identified at step 11: a run cut there is decided
    assert main(["member", path, "--gens", gens, "--word", u, "--json",
                 "--step-limit", "11", "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True, "word": u}
    assert trace.read_text().splitlines() == full[:11]
    # one step earlier they are not, and the run is undecided
    assert main(["member", path, "--gens", gens, "--word", u, "--json",
                 "--step-limit", "10", "--trace", str(trace)]) == 4
    assert json.loads(capsys.readouterr().out) == {"exhausted": True, "member": None,
                                                   "word": u}
    assert trace.read_text().splitlines() == full[:10]
    # a limit the run does not reach changes nothing, a false answer included
    assert main(["member", path, "--gens", gens, "--word", u, "--step-limit", "12"]) == 0
    free = write(tmp_path, "free.pf", FREE)
    assert main(["member", free, "--gens", "@H", "--word", "a b a^-1",
                 "--step-limit", "50"]) == 1
    capsys.readouterr()


def test_cmd_intersect_step_limit(tmp_path, capsys):
    path = write(tmp_path, "free.pf", FREE)
    args = ["intersect", path, "--gens-h", "a b a, a b b, a a", "--gens-k", "a b, b a",
            "--json"]
    assert main(args) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["exhausted"] is False
    assert main(args + ["--step-limit", "1"]) == 4
    # the bouquet of H is cut after one fold
    assert json.loads(capsys.readouterr().out)["exhausted"] is True
    # a limit no reduction reaches changes nothing
    assert main(args + ["--step-limit", "100"]) == 0
    assert json.loads(capsys.readouterr().out) == full


def test_cmd_intersect_step_limit_keeps_cleanup_steps(tmp_path, capsys):
    # a fold phase cut short still logs its remove-redundant and repair
    # steps: with limit 0, H and K with the cells glued at every vertex each
    # glue the missing packet mates of (aab)^3, one repair step apiece
    path = write(tmp_path, "aab3.pf", "gens a b\nrel ( a a b )^3\n")
    trace = tmp_path / "trace.log"
    assert main(["intersect", path, "--gens-h", "a b", "--gens-k", "b a^2", "--json",
                 "--step-limit", "0", "--trace", str(trace)]) == 4
    cut = json.loads(capsys.readouterr().out)
    assert cut["exhausted"] is True and cut["steps"] == 2
    assert trace.read_text().splitlines() == ["step=1 kind=repair P=45 edges=20",
                                              "step=2 kind=repair P=69 edges=30"]


def test_cmd_intersect_traces_all_four_reductions(tmp_path, capsys):
    # the free group on a, b: H's bouquet folds before any cell is glued, so
    # its steps are in the trace, and a cut there is explained by one
    path = write(tmp_path, "free.pf", FREE)
    trace = tmp_path / "trace.log"
    args = ["intersect", path, "--gens-h", "a b a, a b b, a a", "--gens-k", "a b, b a",
            "--json", "--trace", str(trace)]
    assert main(args) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["steps"] > 0 and full["exhausted"] is False
    assert len(trace.read_text().splitlines()) == full["steps"]
    assert main(args + ["--step-limit", "1"]) == 4
    cut = json.loads(capsys.readouterr().out)
    assert cut["exhausted"] is True
    assert len(trace.read_text().splitlines()) >= 1


def rejected(capsys, args, why) -> bool:
    """Whether the CLI refuses the arguments with exit 2, no output and an
    error line that says why."""
    code = main(args)
    out, err = capsys.readouterr()
    return code == 2 and not out and err.startswith("error: ") and why in err


def test_cli_rejects_p_below_2(tmp_path, capsys):
    path = write(tmp_path, "aab.pf", AAB9)
    assert rejected(capsys, ["info", path, "--p", "1"], "p >= 2")
    assert main(["info", path, "--p", "2", "--json"]) == 0


def test_cli_rejects_q_below_3(tmp_path, capsys):
    path = write(tmp_path, "aab.pf", AAB9)
    assert rejected(capsys, ["info", path, "--q", "2"], "q >= 3")
    assert main(["info", path, "--q", "3", "--json"]) == 0


def test_cli_rejects_alpha_that_is_no_fraction(tmp_path, capsys):
    path = write(tmp_path, "aab.pf", AAB9)
    assert rejected(capsys, ["info", path, "--alpha", "x"], "--alpha")
    assert rejected(capsys, ["info", path, "--alpha", "1/0"], "--alpha")


def test_cli_rejects_alpha_not_above_0(tmp_path, capsys):
    # C'(alpha) bounds piece lengths by alpha times the boundary length
    path = write(tmp_path, "aab.pf", AAB9)
    for alpha in ("--alpha=0", "--alpha=-1/6"):
        assert rejected(capsys, ["info", path, alpha], "--alpha must be above 0")
    x = parse_input_file(AAB9).complex
    for alpha in (Fraction(0), Fraction(-1, 6)):
        with pytest.raises(ComplexError, match="alpha > 0"):
            check_small_cancellation(x, 6, 3, alpha)
    # the library refuses p and q as the CLI does, without naming the flags
    for p, q in ((1, 3), (6, 2)):
        with pytest.raises(ComplexError, match=r"need p >= 2 and q >= 3"):
            check_small_cancellation(x, p, q)


def test_cli_rejects_negative_step_limit(tmp_path, capsys):
    path = write(tmp_path, "free.pf", FREE)
    for args in (["subgroup", path, "--gens", "@H"],
                 ["member", path, "--gens", "@H", "--word", "a b"],
                 ["intersect", path, "--gens-h", "a", "--gens-k", "b"]):
        assert rejected(capsys, args + ["--step-limit", "-1"], "--step-limit")
        assert main(args + ["--step-limit", "0"]) in (0, 4)
        capsys.readouterr()


def test_cli_rejects_a_trace_path_it_cannot_write(tmp_path, capsys):
    # exit 2 and no payload: for `member` an exit 1 would read as "not a member"
    path = write(tmp_path, "free.pf", FREE)
    for args, code in ((["subgroup", path, "--gens", "@H"], 0),
                       (["member", path, "--gens", "@H", "--word", "b"], 1),
                       (["intersect", path, "--gens-h", "a", "--gens-k", "b"], 0)):
        for trace in (str(tmp_path / "missing" / "trace.log"), str(tmp_path)):
            assert rejected(capsys, args + ["--trace", trace], trace)
        assert main(args) == code
        capsys.readouterr()


def test_check_rejects_strict_that_no_criterion_reads(tmp_path, capsys):
    path = write(tmp_path, "aab9.pf", AAB9)
    for criterion in ("one-relator-torsion", "equalweights", "powers", "bogus"):
        assert rejected(capsys, ["check", path, "--criterion", criterion, "--strict"],
                        "--strict")
    for criterion in ("sc-c6t3", "sc-c4t4", "all"):
        assert main(["check", path, "--criterion", criterion, "--strict"]) in (0, 1)
        capsys.readouterr()


def test_check_rejects_magnus_that_no_criterion_reads(tmp_path, capsys):
    path = write(tmp_path, "magnus.pf", "gens a b c d\nrel a b c d d a c b b a d c\n")
    for criterion in ("sc-c4t4", "few-occurrences", "powers"):
        assert rejected(capsys, ["check", path, "--criterion", criterion, "--magnus", "a"],
                        "--magnus")
    for criterion in ("magnus", "all"):
        assert main(["check", path, "--criterion", criterion, "--magnus", "a,b"]) == 0
        capsys.readouterr()


HOSTILE = {  # name -> (input file, subcommand and options, error line)
    "weights-no-kind": (TORUS + "weights\n", ["info"],
                        "line 3, column 1: empty weights directive"),
    "weights-unit-value": (TORUS + "weights unit 7\n", ["info"],
                           "line 3, column 1: weights unit takes no values"),
    "weights-gen-no-value": (TORUS + "weights gen a\n", ["info"],
                             "line 3, column 1: weights gen <name> <int>"),
    "weights-gen-unknown": (TORUS + "weights gen z 2\n", ["info"],
                            "line 3, column 1: unknown generator 'z'"),
    "weights-gen-not-int": (TORUS + "weights gen a two\n", ["info"],
                            "line 3, column 1: expected integer, got 'two'"),
    "weights-rel-no-colon": (TORUS + "weights rel 1 1 1 1 1\n", ["info"],
                             "line 3, column 1: weights rel <k>: <int>..."),
    "weights-rel-out-of-range": (TORUS + "weights rel 2: 1 1 1 1\n", ["info"],
                                 "line 3, column 1: relator index 2 out of range"),
    "weights-rel-duplicate": (TORUS + "weights rel 1: 1 1 1 1\nweights rel 1: 2 2 2 2\n",
                              ["info"], "line 4, column 1: duplicate weights for relator 1"),
    "weights-heavy": (TORUS + "weights heavy\n", ["info"],
                      "line 3, column 1: unknown weights kind 'heavy'"),
    "words-no-name": (TORUS + "words : a\n", ["info"],
                      "line 3, column 1: words <name>: <word>, <word>..."),
    "words-column": (TORUS + "words H: a,  a c\n", ["info"],
                     "line 3, column 3: unknown generator 'c'"),
    "gens-option-column": (TORUS, ["subgroup", "--gens", "a,   a c"],
                           "line 1, column 3: unknown generator 'c'"),
    "gens-option-no-list": (TORUS, ["subgroup", "--gens", "@H"],
                            "no word list named 'H' in the input file"),
    "criterion-unknown": (TORUS, ["check", "--criterion", "nope"],
                          "unknown criterion 'nope'"),
    "magnus-missing": (TORUS, ["check", "--criterion", "magnus"],
                       "--magnus <name,name,...> required for this criterion"),
    "magnus-unknown": (TORUS, ["check", "--criterion", "magnus", "--magnus", "z"],
                       "unknown generator 'z'"),
    "gens-empty": ("gens\nrel a\n", ["info"],
                   "line 1, column 1: gens line needs at least one name"),
    "gens-repeated": ("gens a a\n", ["info"], "line 1, column 1: duplicate generator name"),
    "gens-bad-name": ("gens a-b\n", ["info"], "line 1, column 1: invalid generator name 'a-b'"),
    "unknown-directive": ("gens a b\nrelator a b\n", ["info"],
                          "line 2, column 1: unknown directive 'relator'"),
    "rel-before-gens": ("rel a b\ngens a b\n", ["info"], "line 1, column 1: rel before gens"),
    "no-gens": ("# nothing\n", ["info"], "line 1, column 1: missing gens line"),
    "token-plus": ("gens a b\nrel a+ b\n", ["info"], "line 2, column 1: bad token 'a+'"),
    "token-bad-exponent": ("gens a b\nrel a b^x\n", ["info"],
                           "line 2, column 3: bad exponent 'x'"),
    "rel-unknown-generator": ("gens a b\nrel a c\n", ["info"],
                              "line 2, column 3: unknown generator 'c'"),
}


@pytest.mark.parametrize("text, args, error", HOSTILE.values(), ids=list(HOSTILE))
def test_cli_rejects_hostile_input(tmp_path, capsys, text, args, error):
    # one error line that names the fault, where the file has one its line
    # and column (the columns of a word list count from its stripped word),
    # and nothing on standard output
    path = write(tmp_path, "hostile.pf", text)
    assert main([args[0], path, *args[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # every `perifold ...` line of the README's CLI section, on the README's
    # example input file, ends with a documented exit code other than 2
    example, commands = readme_example()
    (tmp_path / "input.pf").write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) in (0, 1, 3, 4), argv
        capsys.readouterr()


def test_cmd_subgroup_missing_certificate(tmp_path, capsys):
    path = write(tmp_path, "fgip.pf", FGIP)
    assert main(["subgroup", path, "--gens", "a"]) == 3
    assert main(["subgroup", path, "--gens", "a", "--force", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["heuristic"] is True


@pytest.mark.parametrize("args, error", [
    (["subgroup", "--gens", "a"],
     "subgroup_presentation: no strict-grade certificate holds for this weighted complex"),
    (["member", "--gens", "a", "--word", "b"],
     "member: no weak-grade certificate holds for this weighted complex"),
    (["intersect", "--gens-h", "a", "--gens-k", "b"],
     "intersect: needs a strict small-cancellation weight certificate"),
], ids=["subgroup", "member", "intersect"])
def test_cli_refuses_a_run_without_its_certificate(tmp_path, capsys, args, error):
    # exit 3, the refusal on standard error and nothing on standard output
    path = write(tmp_path, "fgip.pf", FGIP)
    assert main([args[0], path, *args[1:]]) == 3
    assert capsys.readouterr() == ("", f"{error} (pass force=True for a heuristic run)\n")


def test_cmd_intersect(tmp_path, capsys):
    path = write(tmp_path, "free.pf", FREE)
    assert main(["intersect", path, "--gens-h", "a^2", "--gens-k", "a^3",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == ["x1"]


def test_cmd_info_with_alpha(tmp_path, capsys):
    path = write(tmp_path, "aab.pf", "gens a b\nrel ( a a b )^3\n")
    assert main(["info", path, "--alpha", "1/6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["small_cancellation"]["C_prime"] == {"alpha": "1/6", "holds": True}


def test_cmd_info_with_alpha_failing(tmp_path, capsys):
    # the genus-2 relator has pieces of one letter in 8: C'(1/8) fails at
    # the bound, with a witness, and still exits 0; C'(1/7) holds
    path = write(tmp_path, "g2.pf", GENUS2)
    assert main(["info", path, "--alpha", "1/8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["small_cancellation"]
    assert report["C_prime"] == {"alpha": "1/8", "holds": False}
    assert report["witnesses"] == [
        "C'(1/8) fails: cell 0 has a piece of length 1 with boundary length 8"]
    assert main(["info", path, "--alpha", "1/7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["small_cancellation"]
    assert report["C_prime"] == {"alpha": "1/7", "holds": True}
    assert report["witnesses"] == []


def test_cmd_check_magnus_and_powers(tmp_path, capsys):
    path = write(tmp_path, "magnus.pf",
                 "gens a b c d\nrel a b c d d a c b b a d c\n")
    assert main(["check", path, "--criterion", "magnus", "--magnus", "a,b",
                 "--json"]) == 0
    capsys.readouterr()
    rc = main(["check", path, "--criterion", "magnus", "--magnus", "a,b,c,d"])
    assert rc == 1  # free-factor case: weighting invalid
    capsys.readouterr()
    aab9 = write(tmp_path, "aab9.pf", AAB9)
    assert main(["check", aab9, "--criterion", "powers", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["holds"]  # exponent 9 is below the threshold 18


def test_cmd_check_powers_inapplicable(tmp_path, capsys):
    # the power theorem needs relators that are neither missing nor
    # cyclically conjugate; otherwise its verdict is inapplicable, not a crash
    free = write(tmp_path, "free.pf", FREE)
    conj = write(tmp_path, "conj.pf", "gens a b\nrel a b\nrel b a\n")
    for path, why in ((free, "need at least one word"),
                      (conj, "words are cyclically conjugate (up to inversion)")):
        assert main(["check", path, "--criterion", "powers", "--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert data["criterion"] == "powers" and not data["holds"]
        assert data["notes"] == [why]
    # with no relators the small-cancellation verdicts hold
    assert main(["check", free, "--criterion", "all", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    by_name = {v["criterion"]: v for v in data["verdicts"]}
    assert by_name["sc-c4t4"]["holds"] and not by_name["powers"]["holds"]
    assert main(["check", conj, "--criterion", "all"]) == 0
    capsys.readouterr()


def test_json_output_is_stable(tmp_path, capsys):
    path = write(tmp_path, "zzz.pf", ZZZ)
    main(["info", path, "--json"])
    first = capsys.readouterr().out
    main(["info", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_module_runs_as_a_script(monkeypatch, capsys):
    # `python -m perifold.cli --help` reaches `main` through the
    # `__main__` guard, prints the usage and exits 0
    monkeypatch.setattr(sys, "argv", ["perifold", "--help"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the module is already imported
        with pytest.raises(SystemExit) as done:
            runpy.run_module("perifold.cli", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: perifold")
