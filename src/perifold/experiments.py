"""Measurement helpers for the scaling behaviour of the reduction loop, of
attachment-dominated membership queries and of the certificate."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .complexes import compute_pieces, standard_complex
from .criteria import find_certificate
from .engine import reduce_map
from .maps import bouquet_map
from .subgroups import member_with_trace
from .weights import unit_weighting
from .words import Word, free_reduce, inverse


def random_reduced_word(rng: random.Random, ngens: int, length: int) -> Word:
    letters: list[int] = []
    while len(letters) < length:
        choices = [s * g for g in range(1, ngens + 1) for s in (1, -1)]
        if letters:
            choices = [c for c in choices if c != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters))


def random_generator_set(rng: random.Random, ngens: int, total_length: int,
                         parts: int) -> list[Word]:
    cuts = sorted(rng.sample(range(1, total_length), parts - 1)) if parts > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total_length])]
    return [random_reduced_word(rng, ngens, max(1, s)) for s in sizes]


@dataclass
class ScalingSample:
    total_length: int
    steps: int
    seconds: float


def measure_reduction_scaling(presentation, lengths, seeds, parts: int = 3,
                              best_of: int = 1) -> list[ScalingSample]:
    """Reduce random bouquets of the given total lengths; report step counts
    and best wall-clock per length."""
    x = standard_complex(presentation)
    w = unit_weighting(x)
    out = []
    for length in lengths:
        steps_total = 0
        best_time = float("inf")
        for seed in seeds:
            rng = random.Random(seed)
            gens = random_generator_set(rng, len(presentation.generators),
                                        length, parts)
            gens = [free_reduce(g) for g in gens]
            m = bouquet_map(x, [g for g in gens if g.letters])
            res = None
            for _ in range(best_of):
                t0 = time.perf_counter()
                res = reduce_map(m, w, "strict")
                best_time = min(best_time, time.perf_counter() - t0)
            steps_total += len(res.trace.steps)
        out.append(ScalingSample(length, steps_total // max(1, len(seeds)), best_time))
    return out


def relator_conjugate_product(rng: random.Random, relator: Word, ngens: int, k: int) -> Word:
    """Free reduction of a product of k conjugates c r c^-1, each r a random
    rotation of the relator or of its inverse and each c a random reduced
    word of 0-3 letters."""
    letters: tuple[int, ...] = ()
    for _ in range(k):
        c = random_reduced_word(rng, ngens, rng.randint(0, 3))
        r = relator if rng.random() < 0.5 else inverse(relator)
        j = rng.randrange(len(r))
        letters += c.letters + r.letters[j:] + r.letters[:j] + inverse(c).letters
    return free_reduce(Word(letters))


def measure_member_scaling(presentation, counts, seeds, best_of: int = 1) -> list[ScalingSample]:
    """`member` with no generators, so every step attaches or folds, on
    products of k conjugates of the first relator for each k in counts;
    per k the mean word length and step count, and the mean over the seeds
    of the best wall clock."""
    x = standard_complex(presentation)
    w = unit_weighting(x)
    find_certificate(x, w, "weak")  # built once per weighting, before any timing
    out = []
    for k in counts:
        length = steps = 0
        seconds = 0.0
        for seed in seeds:
            u = relator_conjugate_product(random.Random(seed), presentation.relators[0],
                                          len(presentation.generators), k)
            best = float("inf")
            for _ in range(best_of):
                t0 = time.perf_counter()
                _answer, trace = member_with_trace(x, w, [], u)
                best = min(best, time.perf_counter() - t0)
            length += len(u)
            steps += len(trace.steps)
            seconds += best
        n = max(1, len(seeds))
        out.append(ScalingSample(length // n, steps // n, seconds / n))
    return out


@dataclass
class CertificateSample:
    relator_length: int
    pieces_seconds: float
    certificate_seconds: float


def measure_certificate_scaling(presentations, best_of: int = 1) -> list[CertificateSample]:
    """Best wall-clock of `compute_pieces` and of `find_certificate(strict)`
    per presentation, each repetition on a fresh complex and weighting so
    that the certificate reads no pieces, girths or verdict from a previous
    run's cache."""
    out = []
    for pres in presentations:
        pieces = certificate = float("inf")
        for _ in range(best_of):
            x = standard_complex(pres)
            t0 = time.perf_counter()
            compute_pieces(x)
            t1 = time.perf_counter()
            find_certificate(x, unit_weighting(x), "strict")
            t2 = time.perf_counter()
            pieces, certificate = min(pieces, t1 - t0), min(certificate, t2 - t1)
        out.append(CertificateSample(sum(len(r) for r in pres.relators), pieces,
                                     certificate))
    return out
