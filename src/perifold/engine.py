"""The perimeter-reduction engine: attachment-site search over the
candidate subpaths, packet attachment with exact bookkeeping, the
fold/attach loop, and presentation extraction.

The loop (`reduce_domain`) changes one live `maps.Domain` in place, each
pass a fold phase to a 1-immersion with its packing repair, then, unless
the step limit is reached, the scan for a qualifying boundary subpath and
its packet attachment; the perimeter follows each step by the domain's
local rule, and `verify` checks each step in one place (`_check_step`).
A subgroup's domain is built from its words, glued to the wedge point of a
one-vertex complex (`maps.Domain.bouquet`), and a map is built from the
domain only where one is read.  In strict mode the lexicographic pair
(perimeter, edge count) drops at every fold and every attachment, so the
loop terminates; weak mode may run forever and therefore requires a step
limit.
"""

from __future__ import annotations

from .maps import CombMap, Domain, find_fold, is_packed
from .records import Record
from .weights import (Weighting, cell_weight, map_perimeter, packet_weight,
                      shortest_subpath_reaching, subpath_perimeter)
from .words import Presentation, Word, cyclic_reduce


class EngineError(ValueError):
    pass


class StaleSiteError(EngineError):
    pass


class AttachmentSite(Record):
    _fields = ("cell", "start", "length", "root", "complete")
    _uncompared = ("domain",)  # the domain the site was found on

    def __init__(self, cell: int, start: int, length: int, root: int, complete: bool,
                 domain: Domain):
        self.cell = cell
        self.start = start  # Q is the subpath of ∂R of `length` letters from this position
        self.length = length
        self.root = root  # the lift of Q begins at this vertex; in a 1-immersion it is unique
        self.complete = complete
        self.domain = domain


class TraceStep(Record):
    _fields = ("kind", "perimeter", "edges", "vertices", "cells", "detail")

    def __init__(self, kind: str, perimeter: int, edges: int, vertices: int, cells: int,
                 detail: dict | None = None):
        # fold | attach-complete | attach-incomplete | repair | remove-redundant
        self.kind = kind
        self.perimeter = perimeter
        self.edges = edges
        self.vertices = vertices
        self.cells = cells
        self.detail = {} if detail is None else detail

    def euler_characteristic(self) -> int:
        return self.vertices - self.edges + self.cells


class ReductionTrace(Record):
    _fields = ("initial_perimeter", "initial_edges", "steps")

    def __init__(self, initial_perimeter: int, initial_edges: int,
                 steps: list[TraceStep] | None = None):
        self.initial_perimeter = initial_perimeter
        self.initial_edges = initial_edges
        self.steps = [] if steps is None else steps

    def to_lines(self) -> list[str]:
        return [
            f"step={k} kind={s.kind} P={s.perimeter} edges={s.edges}"
            for k, s in enumerate(self.steps, start=1)
        ]


def _scan_plan(w: Weighting,
               mode: str) -> tuple[tuple[tuple[int, int, int], tuple[int, ...], int], ...]:
    # per (cell, start) with a candidate, in walk order: its walk key
    # (sign * bound, cell, start), ∂R read from start, and the shortest
    # candidate length lo.  As P(S) = P(∂R) - P(Q), Q qualifies when P(Q)
    # exceeds P(∂R) - n*Wt(R) (strict) or reaches it (weak), so the
    # candidate lengths of one (cell, start) are the interval [lo, |R|],
    # and one bisection (`weights.shortest_subpath_reaching`) gives lo.  The
    # bound is |R| in strict mode and lo in weak mode.  Starts are reduced
    # modulo the period length: shifting Q by a period gives the same
    # subpath of the boundary up to its rotational symmetry.  Built once
    # per (weighting, mode) and kept on the weighting.
    plan = w._scans.get(mode)
    if plan is None:
        if mode not in ("strict", "weak"):
            raise EngineError("mode must be 'strict' or 'weak'")
        x, groups = w.complex, []
        for c, bdry in enumerate(x.cells):
            mlen = len(bdry)
            excess = subpath_perimeter(w, c, 0, mlen) - packet_weight(w, c)
            for start in range(x.periods[c][0]):
                lo = max(1, shortest_subpath_reaching(w, c, start, excess,
                                                      strict=mode == "strict"))
                if lo <= mlen:
                    groups.append(((-mlen if mode == "strict" else lo, c, start),
                                   bdry[start:] + bdry[:start], lo))
        plan = w._scans[mode] = tuple(sorted(groups))
    return plan


def _blocked(dom: Domain, cell: int, start: int, d: int) -> bool:
    """Whether the lift of ∂R read from `start` whose first ref is d
    closes up into a present cycle: side (cell, start) is present at the
    edge of d (see `find_site`).  `attach_site` calls it; `find_site`
    inlines its expression."""
    return (cell, start) in dom.sides.get(abs(d) - 1, ())


def find_site(dom: Domain, mode: str = "strict") -> AttachmentSite | None:
    """Deterministic scan of a live packed 1-immersion for an attachment
    site, under the weighting the domain was built with.

    The site is the qualifying lift of least key (sign * W, cell, start,
    root), where W is its number of letters.  The sign is -1 in strict
    mode, which favours complete attachments, and +1 in weak mode, so the
    weak engine reproduces the nonterminating square-ladder behaviour.  A
    lift of ∂R read from a start qualifies when it is maximal and not
    blocked, and W lies in the candidate lengths [lo, |R|] of its
    (cell, start) (`_scan_plan`).

    The lifts of one (cell, start) are counted letter by letter from every
    root its first letter leaves (`Domain.leaving`, ascending), so each is
    maximal forward; one that extends backward (W < |∂R| and the root
    leaves over the inverse of ∂R's last letter) is skipped.  `leaving`
    also lists roots merged away since, whose star is gone: the scan skips
    them, and compacts a list it walked whole (`Domain.compact`) when they
    outnumbered its roots, so that work is at most twice the walk's and
    leaves the list with no such entry.  The groups are walked by key
    (sign * bound, cell, start), the bound being |R| in strict mode and lo
    in weak mode.  Every lift's key is at least its group's, so the scan
    stops before a group whose key is above the least lift key found, and
    at a lift of W equal to its group's bound.  The site is that key,
    (cell, start, W, root); `attach_site` walks the lift it names.  This
    returns the site of the plain scan, which tries every lift at every
    candidate length in the order (sign * length, cell, start), grows it
    forward and backward to a maximal lift, and in weak mode drops it if it
    grew:

    - A lift of W letters tried at a shorter candidate grows forward to W
      letters; strict mode tries the candidate of length W first, and weak
      mode drops the grown lift, so a lift is only taken at W.
    - The skip is exact.  Extend a skipped lift X backward by g letters to
      the maximal lift X* at (R, start - g), read modulo the period.  X*
      has W + g letters, its Q contains X's, so its P(S) is no larger and
      W + g is a candidate length there.  X* is not blocked, or X would
      be: the present cycle through X*'s first ref at (R, start - g) runs
      along X*, so g positions on it has X's first ref at (R, start).
      Strict mode scans longest first, so it returns at X*'s candidate at
      the latest, before it reaches X's; weak mode drops X, which grows.

    A lift that closes up into a present cycle, a circle whose packet is
    present, is blocked and skipped uncounted.  In a 1-immersion its first
    ref d is the only end leaving the root over the first letter, and the
    lift is blocked exactly when side (cell, start) is present at edge
    |d| - 1 (`Domain.sides`); the scan inlines `_blocked`'s expression,
    reading d once per root for the test and the walk.  The domain is
    packed, so if a present cycle C over the cell has C[q] = d with
    q = start modulo the period, its packet mate rotated by q - start has
    d at position start, which puts side (cell, start) at that edge.
    Conversely, that side comes from a live cell whose start-th ref lies
    over ∂R[start], the image of d; that ref is d itself, as an edge and
    its reverse have different images.
    """
    if dom.next_fold() is not None:
        raise EngineError("find_site requires a 1-immersion")
    if not dom.packed:
        raise EngineError("find_site requires a packed domain")
    x, w = dom.codomain, dom.weighting
    stars, edges, parent, sides = dom.stars, dom.edges, dom.parent, dom.sides
    sign = -1 if mode == "strict" else 1
    best = None  # the least lift key found
    for key, ring, lo in _scan_plan(w, mode):
        if best is not None and key > best:
            break
        cell, start = key[1], key[2]
        side, first, back, mlen = (cell, start), ring[0], -ring[-1], len(ring)
        roots = dom.leaving.get(first, ())
        skipped = 0
        for v in roots:
            star = stars[v]
            if star is None:
                skipped += 1  # merged away since it was listed
                continue
            d = star[first][0]
            if side in sides.get(abs(d) - 1, ()):  # `_blocked`, inlined
                continue
            walked = 1  # count the letters of the lift of ∂R from v
            while True:
                # u moves to the root at d's head, as `Domain.head` finds it
                u = edges[d - 1][1] if d > 0 else edges[-d - 1][0]
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                if walked == mlen:
                    break
                ends = stars[u].get(ring[walked])
                if ends is None:
                    break
                walked += 1
                d = ends[0]
            if walked < lo or (walked < mlen and back in stars[v]):
                continue
            lift = (sign * walked, cell, start, v)
            if best is None or lift < best:
                best = lift
                if lift[0] == key[0]:
                    break  # the least lift of its group, below every later group's key
        else:
            if skipped and 2 * skipped > len(roots):  # walked whole, mostly merged away
                dom.compact(first)
    if best is None:
        return None
    signed, cell, start, v = best
    return AttachmentSite(cell, start, abs(signed), v, abs(signed) == len(x.cells[cell]), dom)


def attach_site(dom: Domain, site: AttachmentSite) -> int:
    """Glue the packet of the site's cell to a live domain along the lifted
    Q; returns how many cells it glued.

    Q's lift is walked once, from the site's root over ∂R read from the
    site's start.  Complete sites then identify the endpoints of Q;
    incomplete sites add the complement as a fresh arc.  All packet cells
    missing over the resulting circle are attached.

    A stale site is refused (`StaleSiteError`) before anything changes:
    one found on another domain, one whose root has since been merged into
    another class, and one whose packet is already present along it, which
    is `_blocked` on the walked lift, the test `find_site` inlines.  A
    root that is still a root keeps every lift it had, as folds and
    `identify` only merge stars and the other operations only add, so the
    walk needs no other check.
    """
    if site.domain is not dom:
        raise StaleSiteError("attachment site refers to another domain")
    root, cell, start, length = site.root, site.cell, site.start, site.length
    if dom.parent[root] != root:
        raise StaleSiteError("attachment site's root was merged away")
    bdry = dom.codomain.cells[cell]
    ring = bdry[start:] + bdry[:start]
    head, around = root, []  # around: the circle's refs from position start on
    for letter in ring[:length]:
        d = dom.stars[head][letter][0]
        around.append(d)
        head = dom.head(d)
    if _blocked(dom, cell, start, around[0]):
        raise StaleSiteError("packet already present along the site")
    if site.complete:
        dom.identify(root, head)
    else:
        around += dom.add_arc(head, root, ring[length:])
    return dom.add_packet(cell, around[-start:] + around[:-start])


def _incidence(dom: Domain) -> dict[int, dict[tuple[int, int], set[int]]]:
    """`Domain.sides` recomputed from the live cells' cycles: per edge,
    each side (r, q) at it and the cells over r with their q-th ref on the
    edge."""
    sides: dict[int, dict[tuple[int, int], set[int]]] = {}
    for c, (cycle, r) in enumerate(zip(dom.cycles, dom.cell_over)):
        if cycle is not None:
            for q, d in enumerate(cycle):
                sides.setdefault(abs(d) - 1, {}).setdefault((r, q), set()).add(c)
    return sides


def _leaving_holds(dom: Domain) -> bool:
    """Whether `Domain.leaving` lists, per image letter, ascending, each
    root that the letter leaves exactly once and otherwise only roots
    merged away."""
    parent, over = dom.parent, {}
    for v, p in enumerate(parent):
        if p == v:
            for img in dom.stars[v]:
                over.setdefault(img, []).append(v)
    for img, listed in dom.leaving.items():
        roots = [v for v in listed if parent[v] == v]
        if roots != over.pop(img, []) or any(a >= b for a, b in zip(listed, listed[1:])):
            return False
    return not over


def _check_step(dom: Domain, trace: ReductionTrace, mode: str) -> None:
    """`verify`'s checks of the last step of the trace against the domain:
    the perimeter against the double sum, `sides` against the live cells'
    cycles (`_incidence`), `leaving` against the roots' stars
    (`_leaving_holds`), the step's counts against the domain, and in strict
    mode the drop of (perimeter, edge count) below the previous step's at
    a fold or an attachment."""
    step = trace.steps[-1]
    before = ((trace.steps[-2].perimeter, trace.steps[-2].edges) if len(trace.steps) > 1
              else (trace.initial_perimeter, trace.initial_edges))
    if dom.perimeter != map_perimeter(dom.weighting, dom.to_map()):
        raise EngineError(f"{step.kind} bookkeeping mismatch")
    if dom.sides != _incidence(dom):
        raise EngineError(f"{step.kind} bookkeeping mismatch in sides")
    if not _leaving_holds(dom):
        raise EngineError(f"{step.kind} bookkeeping mismatch in leaving")
    if (step.perimeter, step.edges, step.vertices, step.cells) != (
            dom.perimeter, dom.num_edges, dom.num_vertices, dom.num_cells):
        raise EngineError(f"{step.kind} step misstates the domain")
    if (mode == "strict" and step.kind not in ("repair", "remove-redundant")
            and (step.perimeter, step.edges) >= before):
        raise EngineError(f"{step.kind} did not lower (P, #edges)")


def reduce_domain(dom: Domain, mode: str = "strict", step_limit: int | None = None,
                  verify: bool = False) -> tuple[ReductionTrace, bool]:
    """Fold/repair/attach a live domain in place, under the weighting it was
    built with, until no fold and no qualifying site exists.  Returns the
    trace and whether the step limit cut the run short (`exhausted`, set
    instead of raising so the partial trace stays observable); weak mode
    requires a limit, as weak attachments need not terminate, and a limit
    below 0 is refused, as is an unknown mode (by `_scan_plan`, asked for
    before any step).  A fold phase that the limit cuts short still logs
    its `remove-redundant` and `repair` steps, so a trace may hold more
    steps than the limit.

    One loop, each pass in this order: the fold phase, whose folds one
    `Domain.fold_all` makes within the steps left, each fold step read off
    what it returns; `remove_redundant` and `repair`; then, unless the
    limit is reached, the scan (`find_site`) and, while a site is left, its
    attachment.  With `verify`, `fold_all` makes one fold per call and the
    pass goes back to it while a fold is left, every step is checked
    against the domain (`_check_step`), and each fold phase is checked to
    end in a packed 1-immersion.
    """
    _scan_plan(dom.weighting, mode)  # refuses an unknown mode before any step
    if mode == "weak" and step_limit is None:
        raise EngineError("weak mode requires a step_limit")
    if step_limit is not None and step_limit < 0:
        raise EngineError(f"step_limit must be at least 0, not {step_limit}")
    trace = ReductionTrace(dom.perimeter, dom.num_edges)
    steps = trace.steps

    def log(kind: str, detail: dict) -> None:
        # a twin cell counts in `num_cells` until `remove_redundant`, as in fold steps
        steps.append(TraceStep(kind, dom.perimeter, dom.num_edges, dom.num_vertices,
                               dom.num_cells, detail))
        if verify:
            _check_step(dom, trace, mode)

    while True:
        room = None if step_limit is None else step_limit - len(steps)
        folds, pending = dom.fold_all(1 if verify and room != 0 else room)
        for _d1, _d2, perimeter, edges, vertices, cells in folds:
            steps.append(TraceStep("fold", perimeter, edges, vertices, cells))
            if verify:
                _check_step(dom, trace, mode)
        if verify and folds and pending:
            continue  # one fold per call: the phase goes on
        removed = dom.remove_redundant()
        if removed:
            log("remove-redundant", {"removed": removed})
        added = dom.repair()
        if added:
            log("repair", {"added": added})
        if verify:
            folded = dom.to_map()
            if not pending and find_fold(folded) is not None:
                raise EngineError("fold phase did not end in a 1-immersion")
            if not is_packed(folded)[0]:
                raise EngineError("fold phase did not end packed")
        if step_limit is not None and len(steps) >= step_limit:
            return trace, pending or find_site(dom, mode) is not None
        site = find_site(dom, mode)
        if site is None:
            return trace, False
        before = dom.perimeter
        attach_site(dom, site)
        delta = dom.perimeter - before
        if site.complete and delta > -cell_weight(dom.weighting, site.cell):
            raise EngineError("complete attachment failed to reduce perimeter by Wt(R)")
        log("attach-complete" if site.complete else "attach-incomplete",
            {"cell": site.cell, "delta": delta})


# --- presentation extraction -------------------------------------------------


def extract_presentation(m: CombMap) -> Presentation:
    """Contract a breadth-first spanning tree; non-tree edges generate and the
    2-cell boundaries, rewritten over them, relate.

    Each vertex lists its ends as (edge, the vertex at the other end),
    appended in edge order with +e before -e: the order (|d|, -d) in which
    the search takes them."""
    dom = m.domain
    incident: list[list[tuple[int, int]]] = [[] for _ in range(dom.num_vertices)]
    for e, (src, tgt) in enumerate(dom.edges):
        incident[src].append((e, tgt))
        incident[tgt].append((e, src))
    tree = [False] * len(dom.edges)
    seen = [False] * dom.num_vertices
    seen[m.basepoint] = True
    queue = [m.basepoint]
    for v in queue:  # the queue grows as it is walked, breadth first
        for e, u in incident[v]:
            if not seen[u]:
                seen[u] = tree[e] = True
                queue.append(u)
    if len(queue) != dom.num_vertices:
        raise EngineError("extract_presentation requires a connected domain")
    gen_of = [0] * len(dom.edges)  # per edge its generator, 0 on the tree
    gens = [e for e in range(len(dom.edges)) if not tree[e]]
    for i, e in enumerate(gens, start=1):
        gen_of[e] = i
    names = tuple(f"x{i + 1}" for i in range(len(gens)))
    relators = []
    for bdry in dom.cells:
        word = cyclic_reduce(Word(tuple(gen_of[d - 1] if d > 0 else -gen_of[-d - 1]
                                        for d in bdry if gen_of[abs(d) - 1])))
        if word.letters:
            relators.append(word)
    return Presentation(names, tuple(relators))
