"""Command-line front end.

Input files are line-oriented UTF-8 with ``#`` comments:

    gens a b            # once
    rel ( a a b )^3     # repeated
    weights unit        # or: weights gen <name> <int>  (over a unit base)
                        # or: weights rel <k>: <int>...  (one per position, 1-indexed)
    words H: a^2, a b   # optional named word lists

Exit codes: 0 success/holds/true, 1 fails/false, 2 error, 3 inapplicable or
missing certificate, 4 step limit reached before the reduction finished.
"""

from __future__ import annotations

import sys

from .complexes import Complex2, check_small_cancellation, standard_complex
from .criteria import (
    CriterionError,
    Verdict,
    _inapplicable,
    check_equalweights,
    check_few_occurrences,
    check_min_generator,
    check_one_relator_torsion,
    check_sc_weight,
    magnus_weighting,
    power_theorem,
)
from .subgroups import (
    MissingCertificateError,
    SubgroupResult,
    intersect,
    member_with_trace,
    subgroup_presentation,
)
from .records import Record
from .weights import (
    Weighting,
    cell_weight,
    edge_perimeters,
    weighting_from_rows,
)
from .words import (
    ParseError,
    Presentation,
    Word,
    parse_presentation,
    parse_word,
    period_exponent,
    presentation_lines,
    render_word,
)


class InputError(ValueError):
    pass


class InputFile(Record):
    _fields = ("presentation", "complex", "weighting", "word_lists")

    def __init__(self, presentation: Presentation, complex: Complex2, weighting: Weighting,
                 word_lists: dict[str, list[Word]] | None = None):
        self.presentation = presentation
        self.complex = complex
        self.weighting = weighting
        self.word_lists = {} if word_lists is None else word_lists


def parse_input_file(text: str) -> InputFile:
    pres = parse_presentation(text)
    x = standard_complex(pres)
    gen_weight: dict[str, int] = {}
    rel_rows: dict[int, tuple[int, ...]] = {}
    saw_unit = False
    word_lists: dict[str, list[Word]] = {}
    for lineno, head, rest in presentation_lines(text):
        if head == "weights":
            parts = rest.split()
            if not parts:
                raise ParseError("empty weights directive", lineno, 1)
            kind = parts[0]
            if kind == "unit":
                if len(parts) != 1:
                    raise ParseError("weights unit takes no values", lineno, 1)
                saw_unit = True
            elif kind == "gen":
                if len(parts) != 3:
                    raise ParseError("weights gen <name> <int>", lineno, 1)
                if parts[1] not in pres.generators:
                    raise ParseError(f"unknown generator {parts[1]!r}", lineno, 1)
                if parts[1] in gen_weight:
                    raise ParseError(f"duplicate weights for generator {parts[1]!r}", lineno, 1)
                gen_weight[parts[1]] = _int(parts[2], lineno)
            elif kind == "rel":
                body = rest[len("rel"):].strip()
                idx_s, colon, vals = body.partition(":")
                if not colon:
                    raise ParseError("weights rel <k>: <int>...", lineno, 1)
                k = _int(idx_s.strip(), lineno) - 1
                if not (0 <= k < len(pres.relators)):
                    raise ParseError(f"relator index {k + 1} out of range", lineno, 1)
                row = tuple(_int(v, lineno) for v in vals.split())
                if len(row) != len(pres.relators[k]):
                    raise ParseError(
                        f"relator {k + 1} needs {len(pres.relators[k])} weights",
                        lineno, 1,
                    )
                if k in rel_rows:
                    raise ParseError(f"duplicate weights for relator {k + 1}", lineno, 1)
                rel_rows[k] = row
            else:
                raise ParseError(f"unknown weights kind {kind!r}", lineno, 1)
        elif head == "words":
            name, colon, body = rest.partition(":")
            name = name.strip()
            if not colon or not name:
                raise ParseError("words <name>: <word>, <word>...", lineno, 1)
            if name in word_lists:
                raise ParseError(f"duplicate word list {name!r}", lineno, 1)
            word_lists[name] = _word_list(body, pres.generators, lineno)
    if rel_rows and (gen_weight or saw_unit):
        raise InputError("per-relator weights cannot be mixed with unit/gen directives")
    if rel_rows:
        if set(rel_rows) != set(range(len(pres.relators))):
            raise InputError("per-relator weights must cover every relator")
        weighting = weighting_from_rows(x, [rel_rows[k] for k in range(len(pres.relators))])
    else:
        weight_of = [gen_weight.get(g, 1) for g in pres.generators]
        rows = [tuple(weight_of[abs(d) - 1] for d in bdry) for bdry in x.cells]
        weighting = weighting_from_rows(x, rows)
    return InputFile(pres, x, weighting, word_lists)


def _int(s: str, lineno: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"expected integer, got {s!r}", lineno, 1) from None


def _word_list(text: str, generators, lineno: int = 1) -> list[Word]:
    # comma-separated words; empty chunks are skipped
    return [parse_word(chunk, generators, line=lineno)
            for chunk in map(str.strip, text.split(",")) if chunk]


def _resolve_words(spec: str, f: InputFile) -> list[Word]:
    spec = spec.strip()
    if spec.startswith("@"):
        name = spec[1:]
        if name not in f.word_lists:
            raise InputError(f"no word list named {name!r} in the input file")
        return list(f.word_lists[name])
    return _word_list(spec, f.presentation.generators)


def _emit(data, as_json: bool) -> None:
    if as_json:
        import json  # only here, so plain output does not import it

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _print_plain(data)


def _print_plain(data: dict | list, indent: str = "") -> None:
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_plain(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    else:
        for v in data:
            if isinstance(v, (dict, list)):
                _print_plain(v, indent + "  ")
            else:
                print(f"{indent}{v}")


# --- subcommands -------------------------------------------------------------


def cmd_info(f: InputFile, args) -> int:
    x, w, p = f.complex, f.weighting, f.presentation
    per = edge_perimeters(w)
    if args.p < 2 or args.q < 3:
        raise InputError(f"need --p >= 2 and --q >= 3, not --p {args.p} --q {args.q}")
    from fractions import Fraction  # only here, so the other commands do not import it

    try:
        alpha = Fraction(args.alpha) if args.alpha else None
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--alpha takes a fraction such as 1/6, not {args.alpha!r}") from None
    if alpha is not None and alpha <= 0:
        raise InputError(f"--alpha must be above 0, not {args.alpha}")
    report = check_small_cancellation(x, args.p, args.q, alpha)
    data = {
        "edge_perimeters": {g: per[e] for e, g in enumerate(p.generators)},
        "cells": [
            {
                "index": c,
                "boundary": render_word(Word(x.cells[c]), p.generators),
                "weight": cell_weight(w, c),
                "period_length": x.periods[c][0],
                "exponent": x.periods[c][1],
                "max_piece_length": x.pieces.cell_max[c],
                "min_cycle_piece_cover": _num(x.cycle_covers[c]),
            }
            for c in range(x.num_cells())
        ],
        "small_cancellation": {
            "C": {"p": report.p, "holds": report.c_holds},
            "T": {"q": report.q, "holds": report.t_holds, "method": "link girth"},
            "C_prime": None if report.c_prime_holds is None else {
                "alpha": str(report.alpha), "holds": report.c_prime_holds,
            },
            "witnesses": report.witnesses,
        },
        "warnings": list(p.warnings),
    }
    _emit(data, args.json)
    return 0


def _num(v):
    return None if v == float("inf") else int(v)


_SC_IDS = {"sc-c6t3": "C6T3", "sc-c4t4": "C4T4"}
CRITERIA = ("one-relator-torsion", "equalweights", "min-generator",
            "sc-c6t3", "sc-c4t4", "few-occurrences", "powers", "magnus")


def _run_criterion(f: InputFile, name: str, args) -> Verdict:
    x, w, p = f.complex, f.weighting, f.presentation
    if name == "one-relator-torsion":
        return check_one_relator_torsion(w)
    if name in ("equalweights", "min-generator"):
        if len(p.relators) != 1:
            return _inapplicable(name, "needs a one-relator presentation")
        period, n = period_exponent(p.relators[0])
        if name == "equalweights":
            return check_equalweights(period, n)
        return check_min_generator(period, n)
    if name in _SC_IDS:
        return check_sc_weight(w, _SC_IDS[name], strict=args.strict)
    if name == "few-occurrences":
        return check_few_occurrences(p, x)
    if name == "powers":
        periods = [period_exponent(r) for r in p.relators]
        try:
            _n, verdict = power_theorem([u for u, _n in periods], [n for _u, n in periods])
        except CriterionError as exc:
            return _inapplicable(name, str(exc))
        return verdict
    if name == "magnus":
        if not args.magnus:
            raise InputError("--magnus <name,name,...> required for this criterion")
        edges = set()
        for nm in args.magnus.split(","):
            nm = nm.strip()
            if nm not in p.generators:
                raise InputError(f"unknown generator {nm!r}")
            edges.add(p.generator_index(nm))
        _wt, verdict = magnus_weighting(x, edges)
        return verdict
    raise InputError(f"unknown criterion {name!r}")


def cmd_check(f: InputFile, args) -> int:
    if args.criterion == "all":
        names = list(CRITERIA[:-1])
        if args.magnus:
            names.append("magnus")
    else:
        names = [args.criterion]
    # a flag that no criterion of the run reads is refused, not ignored
    if args.strict and not set(_SC_IDS) & set(names):
        raise InputError("--strict applies to --criterion sc-c6t3, sc-c4t4 or all only")
    if args.magnus and "magnus" not in names:
        raise InputError("--magnus applies to --criterion magnus or all only")
    verdicts = [_run_criterion(f, n, args) for n in names]
    payload = [v.to_json_dict() for v in verdicts]
    _emit(payload[0] if len(payload) == 1 else {"verdicts": payload}, args.json)
    if any(v.holds for v in verdicts):
        return 0
    if any(v.applicable for v in verdicts):
        return 1
    return 3


def _write_trace(trace, path) -> str | None:
    if not path:
        return None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in trace.to_lines())
    except OSError as exc:
        raise InputError(f"cannot write --trace {path}: {exc.strerror}") from None
    return path


def _report(result: SubgroupResult, args) -> int:
    # the trace, the presentation payload and the exit code of a subgroup run
    pres = result.presentation
    data = {
        "generators": list(pres.generators),
        "relators": [render_word(r, pres.generators) for r in pres.relators],
        "certificate": result.certificate.to_json_dict() if result.certificate else None,
        "exhausted": result.exhausted,
        "heuristic": result.heuristic,
        "steps": len(result.trace.steps),
        "trace_path": _write_trace(result.trace, args.trace),
    }
    _emit(data, args.json)
    return 4 if result.exhausted else 0


def cmd_subgroup(f: InputFile, args) -> int:
    gens = _resolve_words(args.gens, f)
    return _report(subgroup_presentation(f.complex, f.weighting, gens, force=args.force,
                                         step_limit=args.step_limit), args)


def cmd_member(f: InputFile, args) -> int:
    gens = _resolve_words(args.gens, f)
    u = parse_word(args.word, f.presentation.generators)
    answer, trace = member_with_trace(f.complex, f.weighting, gens, u, force=args.force,
                                      step_limit=args.step_limit)
    _write_trace(trace, args.trace)
    data = {"member": answer, "word": render_word(u, f.presentation.generators)}
    if answer is None:  # the step limit cut the run short: undecided
        data["exhausted"] = True
    _emit(data, args.json)
    return 4 if answer is None else 0 if answer else 1


def cmd_intersect(f: InputFile, args) -> int:
    gens_h = _resolve_words(args.gens_h, f)
    gens_k = _resolve_words(args.gens_k, f)
    return _report(intersect(f.complex, f.weighting, gens_h, gens_k, force=args.force,
                             step_limit=args.step_limit), args)


COMMANDS = {"info": cmd_info, "check": cmd_check, "subgroup": cmd_subgroup,
            "member": cmd_member, "intersect": cmd_intersect}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only here, so `import perifold.cli` does not import it

    ap = argparse.ArgumentParser(prog="perifold",
                                 description="weighted perimeter toolkit for 2-complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="input file (see module docstring)")
        sp.add_argument("--json", action="store_true")

    def engine_flags(sp):
        sp.add_argument("--force", action="store_true")
        sp.add_argument("--trace", default="")
        sp.add_argument("--step-limit", type=int, default=None)

    sp = sub.add_parser("info", help="perimeters, weights, periods, pieces")
    common(sp)
    sp.add_argument("--p", type=int, default=6)
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--alpha", type=str, default="",
                    help="check C'(alpha), e.g. 1/6")

    sp = sub.add_parser("check", help="run a coherence/quasiconvexity criterion")
    common(sp)
    sp.add_argument("--criterion", default="all", help="|".join(CRITERIA) + "|all")
    sp.add_argument("--strict", action="store_true",
                    help="strict inequalities (quasiconvexity grade)")
    sp.add_argument("--magnus", default="", help="comma-separated subgraph generators")

    sp = sub.add_parser("subgroup", help="finite presentation of a subgroup")
    common(sp)
    sp.add_argument("--gens", required=True, help="comma-separated words or @list")
    engine_flags(sp)

    sp = sub.add_parser("member", help="generalized word problem")
    common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--word", required=True)
    engine_flags(sp)

    sp = sub.add_parser("intersect", help="intersection of two subgroups")
    common(sp)
    sp.add_argument("--gens-h", required=True)
    sp.add_argument("--gens-k", required=True)
    engine_flags(sp)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        f = parse_input_file(text)
    except (OSError, ParseError, InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "step_limit", None) is not None and args.step_limit < 0:
            raise InputError(f"--step-limit must be at least 0, not {args.step_limit}")
        return COMMANDS[args.command](f, args)
    except MissingCertificateError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
