"""Free-group words and group presentations.

A letter is a nonzero int: ``+k`` is generator ``k-1`` read forward, ``-k``
its inverse.  Words are tuples of letters; presentations store their relators
fully expanded (powers flattened) and cyclically reduced.
"""

from __future__ import annotations

import re

from .records import Record


class WordError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Word(Record, frozen=True):
    _fields = ("letters",)

    def __init__(self, letters: tuple[int, ...]):
        object.__setattr__(self, "letters", letters)
        if 0 in letters:
            raise WordError("letters must be nonzero")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def inverse(w: Word) -> Word:
    return Word(tuple(-x for x in reversed(w.letters)))


def power(w: Word, n: int) -> Word:
    if n < 0:
        return power(inverse(w), -n)
    return Word(w.letters * n)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in w.letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return Word(tuple(out))


def is_freely_reduced(w: Word) -> bool:
    return all(a != -b for a, b in zip(w.letters, w.letters[1:]))


def cyclic_reduce(w: Word) -> Word:
    """Freely reduce, then strip conjugating prefix/suffix pairs."""
    v = free_reduce(w).letters
    i, j = 0, len(v)
    while j - i >= 2 and v[i] == -v[j - 1]:
        i += 1
        j -= 1
    return Word(v[i:j])


def is_cyclically_reduced(w: Word) -> bool:
    v = w.letters
    if not is_freely_reduced(w):
        return False
    return len(v) < 2 or v[0] != -v[-1]


def period_length_exponent(letters: tuple[int, ...]) -> tuple[int, int]:
    """(p, n) with the nonempty sequence its first p entries repeated n
    times and n maximal."""
    m = len(letters)
    p = next(p for p in range(1, m + 1)
             if m % p == 0 and letters == letters[:p] * (m // p))
    return p, m // p


def period_exponent(w: Word) -> tuple[Word, int]:
    """Write w as period**exponent with the exponent maximal.

    Requires a nonempty cyclically reduced word.
    """
    if not w.letters:
        raise WordError("empty word has no period")
    p, n = period_length_exponent(w.letters)
    return Word(w.letters[:p]), n


def cyclically_conjugate(u: Word, v: Word) -> bool:
    """True iff u is a cyclic rotation of v or of v**-1 (inputs cyclically reduced)."""
    if len(u) != len(v):
        return False
    if not u.letters:
        return True
    doubled = v.letters + v.letters
    inv = inverse(v).letters
    doubled_inv = inv + inv
    n = len(u)
    return any(
        doubled[k : k + n] == u.letters or doubled_inv[k : k + n] == u.letters
        for k in range(n)
    )


_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class Presentation(Record, frozen=True):
    _fields = ("generators", "relators")
    # normalization notes are kept for echo only and do not participate in
    # equality
    _uncompared = ("warnings",)

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...],
                 warnings: tuple[str, ...] = ()):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "warnings", warnings)
        if len(set(generators)) != len(generators):
            raise WordError("generator names must be distinct")
        for name in generators:
            if not _NAME_RE.fullmatch(name):
                raise WordError(f"invalid generator name {name!r}")
        ngen = len(generators)
        for r in relators:
            if not r.letters:
                raise WordError("empty relator")
            if not is_cyclically_reduced(r):
                raise WordError("relators must be cyclically reduced")
            if any(abs(x) > ngen for x in r.letters):
                raise WordError("relator uses unknown generator")

    def generator_index(self, name: str) -> int:
        return self.generators.index(name)


def generator_occurrences(p: Presentation) -> dict[str, int]:
    """Occurrences of each generator (either orientation) across all relators."""
    counts = {g: 0 for g in p.generators}
    for r in p.relators:
        for x in r.letters:
            counts[p.generators[abs(x) - 1]] += 1
    return counts


def render_word(w: Word, generators) -> str:
    """Space-separated token form, runs collapsed into powers."""
    if not w.letters:
        return ""
    toks: list[str] = []
    i = 0
    letters = w.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name = generators[abs(letters[i]) - 1]
        exp = (j - i) * (1 if letters[i] > 0 else -1)
        toks.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(toks)


# --- word / presentation parsing -------------------------------------------
#
# Token grammar: name | name^<int> | name^-<int>, plus parenthesised groups
# `( <word> )^<int>`.  Tokens are whitespace-separated.


def _tokenize(text: str, line: int, col0: int) -> list[tuple[str, int]]:
    toks = []
    col = col0
    for piece in re.split(r"(\s+|\(|\))", text):
        if piece is None or piece == "":
            continue
        if not piece.isspace():
            toks.append((piece, col))
        col += len(piece)
    return toks


MAX_WORD_LETTERS = 1_000_000  # letters in one parsed word, powers expanded


def _parse_word_tokens(toks, gen_index, line) -> list[int]:
    """Letters of the tokens, groups expanded.

    Each open group keeps its letters on a stack rather than in a recursive
    call, so nesting depth is bounded by the input alone.  `held` counts the
    letters the enclosing groups already hold; each power is checked against
    MAX_WORD_LETTERS, counting them, before it is expanded."""
    stack: list[tuple[list[int], int]] = []  # (enclosing letters, column of '(')
    letters: list[int] = []
    held = 0
    pos = 0
    while pos < len(toks):
        tok, col = toks[pos]
        pos += 1
        if tok == "(":
            stack.append((letters, col))
            held += len(letters)
            letters = []
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            unit = tuple(letters)
            letters, col = stack.pop()
            held -= len(letters)
            exp = 1
            if pos < len(toks) and toks[pos][0].startswith("^"):
                col = toks[pos][1]
                exp = _parse_exponent(toks[pos][0], line, col)
                pos += 1
        else:
            name, caret, exp_s = tok.partition("^")
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"bad token {tok!r}", line, col)
            if name not in gen_index:
                raise ParseError(f"unknown generator {name!r}", line, col)
            exp = _parse_exponent(caret + exp_s, line, col) if caret else 1
            unit = (gen_index[name] + 1,)
        if held + len(letters) + len(unit) * abs(exp) > MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", line, col)
        letters.extend(power(Word(unit), exp).letters)
    if stack:
        raise ParseError("missing ')'", line, 0)
    return letters


def _parse_exponent(s: str, line: int, col: int) -> int:
    """The exponent of `s`, a token that starts with '^'."""
    try:
        return int(s[1:])
    except ValueError:
        raise ParseError(f"bad exponent {s[1:]!r}", line, col) from None


def parse_word(text: str, generators, line: int = 1) -> Word:
    gen_index = {g: i for i, g in enumerate(generators)}
    return Word(tuple(_parse_word_tokens(_tokenize(text, line, 1), gen_index, line)))


def presentation_lines(text: str):
    """Split input into (lineno, directive, rest) triples; '/' also separates lines."""
    out = []
    for lineno, raw in enumerate(text.splitlines() or [text], start=1):
        raw = raw.split("#", 1)[0]
        for part in raw.split("/"):
            part = part.strip()
            if not part:
                continue
            head, _, rest = part.partition(" ")
            out.append((lineno, head, rest.strip()))
    return out


def parse_presentation(text: str) -> Presentation:
    """Parse `gens .. / rel ..` source text into a normalized Presentation.

    Relators are expanded and cyclically reduced; a warning is recorded when
    reduction changed the input.  Weight/word directives (the wider file
    grammar) are skipped here.
    """
    generators: tuple[str, ...] | None = None
    relators: list[Word] = []
    warnings: list[str] = []
    for lineno, head, rest in presentation_lines(text):
        if head == "gens":
            if generators is not None:
                raise ParseError("duplicate gens line", lineno, 1)
            names = rest.split()
            if not names:
                raise ParseError("gens line needs at least one name", lineno, 1)
            for n in names:
                if not _NAME_RE.fullmatch(n):
                    raise ParseError(f"invalid generator name {n!r}", lineno, 1)
            if len(set(names)) != len(names):
                raise ParseError("duplicate generator name", lineno, 1)
            generators = tuple(names)
        elif head == "rel":
            if generators is None:
                raise ParseError("rel before gens", lineno, 1)
            w = parse_word(rest, generators, line=lineno)
            reduced = cyclic_reduce(w)
            if not reduced.letters:
                raise ParseError("relator is trivial after reduction", lineno, 1)
            if reduced != w:
                warnings.append(
                    f"relator {rest!r} was not cyclically reduced; using"
                    f" {render_word(reduced, generators)!r}"
                )
            relators.append(reduced)
        elif head in ("weights", "words"):
            continue
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)
    if generators is None:
        raise ParseError("missing gens line", 1, 1)
    return Presentation(generators, tuple(relators), warnings=tuple(warnings))
