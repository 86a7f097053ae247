"""Independent oracles for the benchmark's answer checks.

Nothing here imports perifold: every oracle works on plain tuples of
letters (``+k`` is generator ``k``, ``-k`` its inverse) and plain edge
lists, so a change to the program cannot change what counts as correct.
"""

from __future__ import annotations


def free_reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def _rotations(relator) -> list[tuple[int, ...]]:
    out = []
    for base in (tuple(relator), inverse(relator)):
        for k in range(len(base)):
            rot = base[k:] + base[:k]
            if rot not in out:
                out.append(rot)
    return out


def dehn_reduce(letters, relator, threshold: int) -> tuple[int, ...]:
    """Rewrite any subword longer than `threshold` letters of a rotation of
    the relator or its inverse by the inverse of the rest of that rotation,
    freely reducing after each rewrite, until none is left.

    With `threshold` at least half the relator length every rewrite shortens
    the word, so the loop ends.  The word is trivial iff the result is empty
    when every nonempty reduced trivial word has such a subword:
    Greendlinger's lemma for C'(1/6) relators, Newman's spelling theorem for
    a proper power s^n (a subword longer than (n-1)|s|).
    """
    rots = _rotations(relator)
    cur = free_reduce(letters)
    while True:
        hit = None
        for s in range(len(cur)):
            for rot in rots:
                k = 0
                while k < len(rot) and s + k < len(cur) and cur[s + k] == rot[k]:
                    k += 1
                if k > threshold:
                    hit = (s, k, rot)
                    break
            if hit:
                break
        if hit is None:
            return cur
        s, k, rot = hit
        cur = free_reduce(cur[:s] + inverse(rot[k:]) + cur[s + k:])


# <a, b | (aab)^3>: Newman's theorem guarantees a subword of length > 6.
AAB3_RELATOR = (1, 1, 2) * 3
# <a1, b1, a2, b2 | [a1,b1][a2,b2]>: pieces have length 1, so C'(1/7) holds
# and Greendlinger's lemma guarantees a subword of length > 4.
GENUS2_RELATOR = (1, 2, -1, -2, 3, 4, -3, -4)


def aab3_trivial(letters) -> bool:
    return not dehn_reduce(letters, AAB3_RELATOR, 4)


def genus2_trivial(letters) -> bool:
    return not dehn_reduce(letters, GENUS2_RELATOR, 4)


# --- free abelian groups ------------------------------------------------------


def exponent_sums(letters, ngens: int) -> tuple[int, ...]:
    v = [0] * ngens
    for x in letters:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def _echelon(vectors, ncols: int) -> list[tuple[int, list[int]]]:
    """Integer row echelon basis of the lattice the vectors span, as
    (pivot column, row) pairs with zeros left of each pivot."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(ncols):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            nxt = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                r2 = [a - q * b for a, b in zip(r, p)]
                (nxt if r2[col] != 0 else rest).append(r2)
            live = nxt
        if live:
            basis.append((col, live[0]))
        rows = [r for r in rest if any(r)]
    return basis


def in_lattice(target, vectors) -> bool:
    """Whether the integer vector lies in the lattice the vectors span."""
    t = list(target)
    for col, row in _echelon(vectors, len(t)):
        if t[col] % row[col]:
            return False
        q = t[col] // row[col]
        t = [a - q * b for a, b in zip(t, row)]
    return not any(t)


def torus_member(gens, letters) -> bool:
    """Membership in a subgroup of Z^2 = <a, b | [a, b]>: the exponent sums
    of the word lie in the lattice of those of the generators."""
    return in_lattice(exponent_sums(letters, 2), [exponent_sums(g, 2) for g in gens])


def abelian_invariants(ngens: int, relators) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of the abelianisation of
    <ngens generators | relators>, from the Smith form of the exponent-sum
    matrix."""
    a = [list(exponent_sums(r, ngens)) for r in relators]
    a = [row for row in a if any(row)]
    diag = []
    while a and a[0]:
        entries = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        dirty = False
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            dirty |= a[i][0] != 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[0]
            dirty |= a[0][j] != 0
        if dirty:
            continue  # a smaller remainder appeared: pivot on it next
        bad = next((i for i in range(1, len(a)) if any(x % p for x in a[i][1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            continue  # pivot must divide the rest (invariant factors)
        diag.append(abs(p))
        a = [row[1:] for row in a[1:]]
        a = [row for row in a if any(row)]
    return ngens - len(diag), tuple(d for d in diag if d > 1)


# --- maps as plain edge lists -------------------------------------------------


def is_immersion(edges, labels) -> bool:
    """No vertex has two outgoing edge-ends with the same label.  `edges`
    holds (tail, head) pairs, `labels` the signed codomain edge of each."""
    seen = set()
    for (s, t), lab in zip(edges, labels):
        for key in ((s, lab), (t, -lab)):
            if key in seen:
                return False
            seen.add(key)
    return True


def lifts_closed(edges, labels, start: int, letters) -> bool:
    """Whether the word reads a closed path from `start` in an immersed
    labelled graph."""
    out = {}
    for (s, t), lab in zip(edges, labels):
        out[(s, lab)] = t
        out[(t, -lab)] = s
    v = start
    for x in letters:
        v = out.get((v, x))
        if v is None:
            return False
    return v == start


def double_sum_perimeter(cod_cells, side_weights, labels, dom_cells, cell_image) -> int:
    """Perimeter by its definition: over every domain edge and every side
    (cell, position) of the codomain over that edge's image, the weight of
    the side when no domain cell lying over the cell puts that edge there.

    `cell_image[c] = (r, offset, reflected)` places domain boundary position
    j over codomain position offset + j (offset - j when reflected).
    """
    present = [set() for _ in labels]
    for bdry, (r, offset, reflected) in zip(dom_cells, cell_image):
        m = len(bdry)
        for q in range(m):
            d = -bdry[(offset - q) % m] if reflected else bdry[(q - offset) % m]
            present[abs(d) - 1].add((r, q))
    total = 0
    for e, lab in enumerate(labels):
        for r, cb in enumerate(cod_cells):
            for i, d in enumerate(cb):
                if abs(d) == abs(lab) and (r, i) not in present[e]:
                    total += side_weights[r][i]
    return total
