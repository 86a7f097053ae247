"""Combinatorial maps between 2-complexes.

A map stores per-vertex and per-edge images (edge images signed) plus, for
each domain 2-cell, a triple (target cell, offset, reflected) describing how
the domain boundary sits over the target boundary:

    reflected = False:  image of boundary[j]  ==  target_boundary[(offset + j) % m]
    reflected = True:   image of boundary[j]  == -target_boundary[(offset - j) % m]

The rewritten cycle of a domain cell lists, for every target boundary
position q, the domain directed edge lying over it.  Two domain cells are the
same lift exactly when their rewritten cycles agree, which makes redundancy,
packedness and side presence straightforward to state.

A `Domain` is the domain of a subgroup's map kept live, built from its
words as a wedge of arcs at the one vertex of a presentation complex
(`Domain.bouquet`): folds, vertex identifications, fresh arcs and packet
cells change it in place, its perimeter changes only when an edge is added
or dropped or a side becomes present, and the map is built from it once
(`Domain.to_map`); the based fiber product of two domains is read off them
(`based_fiber_product`).  A live domain is in normal form: vertex 0 is its
basepoint and every cell lies over its target cell from position 0, so it
keeps per cell only that target and the rewritten cycle, and each map built
from it is based at vertex 0, with that cycle as the cell's boundary and
(target, 0, False) as its image.
"""

from __future__ import annotations

import bisect
import heapq
from itertools import accumulate

from .complexes import Complex2
from .records import Record
from .weights import cell_weight, subpath_perimeter
from .words import Word


class MapError(ValueError):
    pass


class CombMap(Record):
    _fields = ("domain", "codomain", "vertex_image", "edge_image", "cell_image", "basepoint")

    def __init__(self, domain: Complex2, codomain: Complex2, vertex_image: list[int],
                 edge_image: list[int], cell_image: list[tuple[int, int, bool]],
                 basepoint: int = 0):
        self.domain = domain
        self.codomain = codomain
        self.vertex_image = vertex_image
        self.edge_image = edge_image  # signed codomain edge ref per positive domain edge
        self.cell_image = cell_image  # (cell, offset, reflected)
        self.basepoint = basepoint

    def image_of(self, d: int) -> int:
        img = self.edge_image[abs(d) - 1]
        return img if d > 0 else -img

    def validate(self) -> None:
        dom, cod = self.domain, self.codomain
        dom.validate()
        cod.validate()
        if len(self.vertex_image) != dom.num_vertices:
            raise MapError("vertex image size mismatch")
        if len(self.edge_image) != dom.num_edges():
            raise MapError("edge image size mismatch")
        if len(self.cell_image) != dom.num_cells():
            raise MapError("cell image size mismatch")
        if not (0 <= self.basepoint < dom.num_vertices):
            raise MapError("basepoint out of range")
        for e, (src, tgt) in enumerate(dom.edges):
            img = self.edge_image[e]
            if img == 0 or abs(img) > cod.num_edges():
                raise MapError(f"edge {e} image out of range")
            if self.vertex_image[src] != cod.tail(img) or self.vertex_image[tgt] != cod.head(img):
                raise MapError(f"edge {e} image endpoint mismatch")
        for c, (r, offset, reflected) in enumerate(self.cell_image):
            if not (0 <= r < cod.num_cells()):
                raise MapError(f"cell {c} image out of range")
            bdry = dom.cells[c]
            target = cod.cells[r]
            m = len(target)
            if len(bdry) != m:
                raise MapError(f"cell {c} boundary length mismatch")
            for j, d in enumerate(bdry):
                if reflected:
                    want = -target[(offset - j) % m]
                else:
                    want = target[(offset + j) % m]
                if self.image_of(d) != want:
                    raise MapError(f"cell {c} boundary incompatible at {j}")

    def rewritten_cycle(self, c: int) -> tuple[int, ...]:
        """Domain directed edge over each target boundary position."""
        r, offset, reflected = self.cell_image[c]
        bdry = self.domain.cells[c]
        m = len(bdry)
        if reflected:
            return tuple(-bdry[(offset - q) % m] for q in range(m))
        return tuple(bdry[(q - offset) % m] for q in range(m))


# --- changing the domain ----------------------------------------------------


class Domain:
    """A map's domain over a one-vertex complex, changed in place by four
    operations that each touch only what they change: `fold_all`,
    `identify`, `add_arc` and `add_packet` (with `remove_redundant`,
    `repair` and `augment`).  `Domain(w)` is the wedge point of the
    complex of the weighting w: vertex 0, the basepoint, with no edge and
    no cell; it refuses a complex with more than one vertex, so every
    vertex maps to that one vertex and no vertex image is kept.  A
    subgroup's domain is the wedge of its words glued to it (`bouquet`).
    Vertex 0 stays the basepoint, as `identify` keeps the smaller root,
    and every cell lies over its target from position 0, so a cell keeps
    only that target (`cell_over`) and its rewritten cycle (`cycles`).

    Vertex and edge ids are numbered on from the last; none is reused.
    Vertex classes live in a union-find whose root is the smallest id,
    each root's star maps an image letter to the sorted refs over it that
    leave the class, and each cell keeps its rewritten cycle in live
    refs.  `sides` is the one incidence index: per edge, each side (r, q)
    present there and the live cells over r whose q-th ref lies on the
    edge, never an empty set.  `leaving` lists per image letter, ascending,
    each root it leaves once, and roots merged away since, whose star is
    None: `engine.find_site` skips them and drops them (`compact`) from a
    list it walked whole when they outnumbered the roots there.
    The fold heap holds a (root, image) pair wherever an image at a root
    gets its second end, so every (root, image) with two or more ends has
    an entry; an entry whose root was merged away or whose image has fewer
    than two ends left is stale, and is dropped when it reaches the top.
    Between operations the heap is empty or its top is live: `fold_all`
    drops stale tops before it returns, `identify` pushes (lo, image) below
    every (hi, image) it makes stale, and every other push is live.
    A fresh vertex of an arc, or of a cell copy of `augment`, has the
    largest id yet, so it is appended to `leaving`, which stays ascending.
    A fold can make two cells equal: the later is a twin until
    `remove_redundant`.  `to_map` numbers vertex classes by their
    smallest id and surviving edges and cells in id order, as a fold of
    the input, and maps every vertex to vertex 0; the basepoint is vertex
    0 there too.

    Every domain carries the weighting it was built from (kept as
    `weighting`; its complex is the codomain), and `perimeter` follows one
    rule: it starts at 0, the wedge point's, and changes only when an edge
    is added (by its edge perimeter) or dropped (by that less the weights
    of its present sides), or when a side becomes present at an edge (by
    its weight).  Every number the rule adds comes from the weighting:
    edge perimeters, side weights, and for a copy of `augment`, P(∂R) and
    Wt(R).
    """

    def __init__(self, w):
        x = w.complex
        if x.num_vertices != 1:
            raise MapError("Domain expects a one-vertex codomain")
        self.codomain, self.weighting = x, w
        self.per, self.weights = w._per, w.side_weights
        self.parent, self.edges, self.edge_image, self.dropped = [0], [], [], set()
        self.stars: list[dict[int, list[int]] | None] = [{}]
        # image letter -> the roots it leaves and roots merged away since, ascending
        self.leaving: dict[int, list[int]] = {}
        self.heap: list[tuple[int, int]] = []  # (root, image) pairs that may have two ends
        self.cycles: list[tuple[int, ...] | None] = []  # per cell; None once deleted
        self.cell_over: list[int] = []  # per cell, the target cell it lies over from position 0
        # edge -> each side (r, q) present at it -> the live cells over r with their q-th ref on it
        self.sides: dict[int, dict[tuple[int, int], set[int]]] = {}
        self.twins: set[int] = set()
        self.num_vertices, self.num_edges, self.num_cells = 1, 0, 0
        self.perimeter = 0
        self.packed = True

    @classmethod
    def bouquet(cls, w, words: list[Word], whisker: Word | None = None) -> Domain:
        """The wedge of subdivided circles (one per word, in order) at the
        basepoint 0, with an optional open whisker arc that ends at the last
        vertex, mapped along the given words into the complex of the
        weighting w: arcs (`add_arc`) glued to its wedge point (`Domain(w)`)."""
        dom = cls(w)
        ngen = dom.codomain.num_edges()
        for word in words:
            if not word.letters:
                raise MapError("bouquet words must be nonempty")
            if any(abs(ell) > ngen for ell in word.letters):
                raise MapError("word uses unknown generator")
        if whisker is not None and any(abs(ell) > ngen for ell in whisker.letters):
            raise MapError("word uses unknown generator")
        for word in words:
            dom.add_arc(0, 0, word.letters)
        if whisker is not None and whisker.letters:
            dom.add_arc(0, None, whisker.letters)
        return dom

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def roots(self) -> list[int]:
        """Per vertex id, its root; `parent` is left as it is.  No parent
        is larger than its child, so one ascending pass resolves them."""
        root = self.parent[:]
        for v, p in enumerate(root):
            root[v] = root[p]
        return root

    def head(self, d: int) -> int:
        return self.find(self.edges[abs(d) - 1][1 if d > 0 else 0])

    def next_fold(self) -> tuple[int, int] | None:
        """(root, image) of the next fold in `find_fold` order, or None: the
        top of the fold heap, which is live between operations."""
        return self.heap[0] if self.heap else None

    def vertex_numbers(self) -> dict[int, int]:
        """The vertices of `to_map`: root -> its number."""
        roots = [v for v, p in enumerate(self.parent) if p == v]
        return dict(zip(roots, range(len(roots))))

    def edge_refs(self) -> list[int]:
        """The edges of `to_map`: per edge id its ref, 0 once dropped."""
        alive = [int(e not in self.dropped) for e in range(len(self.edges))]
        return [k * a for k, a in zip(accumulate(alive), alive)]

    def to_map(self) -> CombMap:
        """The map of the domain, in normal form: each live cell's
        boundary is its renumbered cycle, over its target from position 0,
        and the basepoint is vertex 0, the class of vertex id 0."""
        vertex, ref = self.vertex_numbers(), self.edge_refs()
        edges = [(vertex[self.find(s)], vertex[self.find(t)])
                 for e, (s, t) in enumerate(self.edges) if ref[e]]
        live = [(cycle, r) for cycle, r in zip(self.cycles, self.cell_over) if cycle is not None]
        cells = [_renumbered(cycle, ref) for cycle, _r in live]
        return CombMap(Complex2(len(vertex), edges, cells), self.codomain, [0] * len(vertex),
                       [img for e, img in enumerate(self.edge_image) if ref[e]],
                       [(r, 0, False) for _cycle, r in live])

    def _make_present(self, e: int, side: tuple[int, int], cells: set[int]) -> None:
        """Enter `cells` as putting `side` at edge e; the perimeter drops by
        the side's weight when the side gets its first cells."""
        sides = self.sides.get(e)
        if sides is None:
            self.sides[e] = sides = {}
        have = sides.get(side)
        if have is None:
            sides[side] = cells
            self.perimeter -= self.weights[side[0]][side[1]]
        else:
            have |= cells

    def _add_end(self, v: int, img: int, d: int) -> None:
        ends = self.stars[v].setdefault(img, [])
        if not ends:
            bisect.insort(self.leaving.setdefault(img, []), v)
        elif len(ends) == 1:
            heapq.heappush(self.heap, (v, img))
        bisect.insort(ends, d)

    def identify(self, u: int, v: int) -> None:
        """Merge the classes of roots u and v, which have one image, into
        the smaller root; each image that has two ends or more there after
        the merge is pushed on the fold heap.

        Per image the shorter end list goes into the longer, whose list
        object is kept: one end by `bisect.insort`, more by a merge of the
        two sorted runs, so no merge re-sorts a long list.  The larger root
        stays in `leaving`, where it is skipped, so no merge deletes from
        the middle of a long list either.  The smaller is entered where it
        gains an image, in the slot of the entry after its place if that
        is a root merged away, as it often is the larger root itself:
        that keeps the list ascending and moves nothing.  An end list that
        `fold_all` has just emptied at the root it keeps is refilled here,
        so that root keeps its one entry."""
        if u == v:
            return
        lo, hi = min(u, v), max(u, v)
        stars, heap = self.stars, self.heap
        star, merged = stars[lo], stars[hi]
        stars[hi] = None  # from here on hi's entries in `leaving` read as merged away
        for img, moved in merged.items():
            if not moved:
                continue  # emptied by the fold being made, at the root merged away
            into = star.get(img)
            if not into:
                if into is None:
                    roots = self.leaving[img]
                    i = bisect.bisect(roots, lo)
                    if i < len(roots) and stars[roots[i]] is None:
                        roots[i] = lo  # into the slot of a root merged away, often hi
                    else:
                        roots.insert(i, lo)
                star[img] = into = moved
            elif len(moved) == 1:
                bisect.insort(into, moved[0])
            else:
                if len(into) < len(moved):
                    into, moved = moved, into
                    star[img] = into
                into += moved
                into.sort()  # two sorted runs, merged
            if len(into) > 1:
                heapq.heappush(heap, (lo, img))
        self.parent[hi] = lo
        self.num_vertices -= 1

    def compact(self, img: int) -> None:
        """Drop the roots merged away from `leaving[img]`, in place."""
        roots, parent = self.leaving[img], self.parent
        roots[:] = [v for v in roots if parent[v] == v]

    def _add_cell(self, r: int, cycle: tuple[int, ...]) -> None:
        c = len(self.cycles)
        self.cycles.append(cycle)
        self.cell_over.append(r)
        self.num_cells += 1
        for q, d in enumerate(cycle):
            self._make_present(abs(d) - 1, (r, q), {c})

    def _cells_with(self, r: int, cycle: tuple[int, ...]) -> list[int]:
        """The live cells over r whose cycle is `cycle`, read off the cells
        of side (r, 0) at its first edge, which every such cell puts there,
        in set order: the callers read only their minimum, their set and
        whether there is one."""
        cycles = self.cycles
        return [c for c in self.sides.get(abs(cycle[0]) - 1, {}).get((r, 0), ())
                if cycles[c] == cycle]

    def _mark_twins(self, c: int) -> None:
        """Mark as twins the cells equal to cell c, all but the smallest
        id; c must be entered in `sides`."""
        equal = self._cells_with(self.cell_over[c], self.cycles[c])
        if len(equal) > 1:
            self.twins.update(equal)
            self.twins.discard(min(equal))

    def fold_all(self, limit: int | None = None
                 ) -> tuple[list[tuple[int, int, int, int, int, int]], bool]:
        """Fold until no fold is left or `limit` folds are made.  Returns,
        per fold, its refs d1 and d2 and (perimeter, #edges, #vertices,
        #cells) after it, and whether a fold is still left.

        Each fold is at the least (root, image) with two ends or more, as
        `next_fold` and `find_fold` take it: the edge of the second
        smallest ref over it is dropped into the edge of the smallest, the
        cells through it are rewritten, and their heads are merged
        (`identify`).  The heap holds every such pair, so its least live
        entry is that fold.  A stale entry is safe to drop: a root merged
        away never becomes a root again, and an image that falls below two
        ends at a root is pushed again when it gets its second end back
        (`_add_end`, `add_arc`, `identify`), so dropping an entry never
        loses a fold, and pushing one twice only adds an entry that is read
        or dropped in turn.

        The dropped end's reverse is deleted from its end list at h2, the
        head of d2.  If that empties the list, it is left in h2's star and
        h2 in `leaving`: h1 has the reverse of d1 over the same letter, so
        `identify` either refills the list or merges h2 away."""
        heap, parent, stars, edges, cycles = (self.heap, self.parent, self.stars, self.edges,
                                              self.cycles)
        folds = []
        while heap:
            v, img = heap[0]
            ends = stars[v].get(img) if parent[v] == v else None
            if ends is None or len(ends) < 2:
                heapq.heappop(heap)
                continue
            if limit is not None and len(folds) >= limit:
                return folds, True
            d1, d2 = ends[0], ends[1]
            del ends[1]
            h1 = edges[d1 - 1][1] if d1 > 0 else edges[-d1 - 1][0]
            h2 = edges[d2 - 1][1] if d2 > 0 else edges[-d2 - 1][0]
            while parent[h1] != h1:  # the roots at their heads, as `find` climbs to them
                parent[h1] = parent[parent[h1]]
                h1 = parent[h1]
            while parent[h2] != h2:
                parent[h2] = parent[parent[h2]]
                h2 = parent[h2]
            back = stars[h2][-img]  # left in place if emptied: `identify` refills it
            del back[bisect.bisect_left(back, -d2)]
            keep, drop = abs(d1) - 1, abs(d2) - 1
            self.dropped.add(drop)
            self.num_edges -= 1
            self.perimeter -= self.per[abs(self.edge_image[drop]) - 1]
            moved = self.sides.pop(drop, None)
            if moved:  # each side of the dropped edge moves to keep, with its cells
                # the order of `through` is never seen: each cycle is rewritten on
                # its own, and the last cell of a class of equal cells to be
                # rewritten finds the class whole, so the twins come out the same
                through = set()
                for (r, q), cells in moved.items():
                    self.perimeter += self.weights[r][q]
                    self._make_present(keep, (r, q), cells)
                    through |= cells
                over = keep + 1 if (d1 > 0) == (d2 > 0) else -(keep + 1)
                onto = {drop + 1: over, -(drop + 1): -over}
                for c in through:
                    cycles[c] = tuple(onto.get(d, d) for d in cycles[c])
                    self._mark_twins(c)
            self.identify(h1, h2)
            folds.append((d1, d2, self.perimeter, self.num_edges, self.num_vertices,
                          self.num_cells))
        return folds, False

    def add_arc(self, u: int, v: int | None, letters) -> list[int]:
        """Add an arc over nonempty `letters` from root u to root v, or to
        a fresh vertex when v is None; returns its edge refs.  Edges are
        oriented along the arc and numbered on from the last, and so is
        each fresh vertex.

        The fresh vertices between the letters come from `_fresh_vertices`.
        Only the ends at u and v, existing roots, go through `_add_end`,
        which pushes (root, image) where the image gets its second end."""
        parent, edges = self.parent, self.edges
        d, n = len(edges), len(letters)  # the arc's refs are d + 1 .. d + n
        self._add_end(u, letters[0], d + 1)
        u = self._fresh_vertices(u, letters)
        letter, d = letters[-1], d + n
        if v is None:
            v = len(parent)
            parent.append(v)
            self.stars.append({-letter: [-d]})
            self.leaving.setdefault(-letter, []).append(v)
            self.num_vertices += 1
        else:
            self._add_end(v, -letter, -d)
        edges.append((u, v))
        self.edge_image.extend(letters)
        per = self.per
        self.perimeter += sum([per[abs(ell) - 1] for ell in letters])
        self.num_vertices += n - 1
        self.num_edges += n
        return list(range(d - n + 1, d + 1))

    def _fresh_vertices(self, u: int, letters) -> int:
        """Append the edges of an arc over `letters` but its last, from root
        u to a fresh vertex after each letter; returns the last fresh vertex
        (u itself for one letter), the tail of the arc's last edge.

        A fresh vertex's star is built whole, its two ends at once.  Its id
        is the largest yet, so it is appended to `leaving`, which stays
        ascending, and it has an image with two ends only where the arc
        backtracks (a letter followed by its inverse), so only there is
        (vertex, that image) pushed on the fold heap."""
        stars, leaving, parent, edges = self.stars, self.leaving, self.parent, self.edges
        d, letter = len(edges), letters[0]
        for out in letters[1:]:  # a fresh vertex between letter and out
            d += 1
            nxt = len(parent)
            parent.append(nxt)
            edges.append((u, nxt))
            if out == -letter:
                stars.append({out: [-d, d + 1]})
                leaving.setdefault(out, []).append(nxt)
                heapq.heappush(self.heap, (nxt, out))
            else:
                stars.append({-letter: [-d], out: [d + 1]})
                leaving.setdefault(-letter, []).append(nxt)
                leaving.setdefault(out, []).append(nxt)
            u, letter = nxt, out
        return u

    def add_packet(self, r: int, cycle) -> int:
        """Glue a 2-cell over target cell r along each packet mate of a cycle
        over r (`packet_mates`) that is not present yet; returns how many."""
        added = 0
        for mate in packet_mates(self.codomain, r, cycle):
            if not self._cells_with(r, mate):
                self._add_cell(r, mate)
                added += 1
        return added

    def augment(self) -> None:
        """Glue at each root, in ascending order, one copy of each codomain
        cell R: a fresh arc over ∂R read from position 0, from the root to
        itself, and its cell over (R, 0).  The codomain has one vertex, so
        every position of ∂R leaves it.

        Each copy is written whole: its arc as `add_arc` glues it, then its
        cell as `_add_cell` would enter it.  Every edge of a copy is fresh,
        so each lies on that cell alone and has one present side, and the
        copy changes the perimeter by P(∂R) - Wt(R) at once, both read off
        the weighting; a fresh cycle is never a twin."""
        x, w = self.codomain, self.weighting
        parent, edges, cycles, sides = self.parent, self.edges, self.cycles, self.sides
        sizes = len(parent), len(edges), len(cycles)
        copies = [(bdry, [(r, q) for q in range(len(bdry))],
                   subpath_perimeter(w, r, 0, len(bdry)) - cell_weight(w, r), n)
                  for r, (bdry, (_p, n)) in enumerate(zip(x.cells, x.periods))]
        for v in [v for v, p in enumerate(parent) if p == v]:  # the roots before any copy
            for r, (letters, copy_sides, change, exponent) in enumerate(copies):
                d, n, c = len(edges), len(letters), len(cycles)  # refs d + 1 .. d + n, cell c
                self._add_end(v, letters[0], d + 1)
                u = self._fresh_vertices(v, letters)
                self._add_end(v, -letters[-1], -(d + n))
                edges.append((u, v))
                self.edge_image.extend(letters)
                cycles.append(tuple(range(d + 1, d + n + 1)))
                self.cell_over.append(r)
                for e, side in zip(range(d, d + n), copy_sides):
                    sides[e] = {side: {c}}
                self.perimeter += change
                if exponent != 1:
                    self.packed = False
        self.num_vertices += len(parent) - sizes[0]
        self.num_edges += len(edges) - sizes[1]
        self.num_cells += len(cycles) - sizes[2]

    def remove_redundant(self) -> int:
        """Delete the twins, keeping the first cell of each cycle; the
        perimeter is unchanged.  Returns how many."""
        # each twin is deleted on its own, so the order of the set is never seen;
        # the kept cell has the same cycle, so no side loses its last cell
        for c in self.twins:
            r = self.cell_over[c]
            for q, d in enumerate(self.cycles[c]):
                self.sides[abs(d) - 1][(r, q)].discard(c)
            self.cycles[c] = None
        removed, self.twins = len(self.twins), set()
        self.num_cells -= removed
        return removed

    def repair(self) -> int:
        """Glue the missing packet mates along the present cycles
        (`add_packet`); returns how many.  Folds rewrite a cycle and its
        mates alike and `add_packet` glues whole packets, so only the cells
        of `augment` can lack a mate, and only over a cell of exponent
        above 1; `packed` is set while none can.

        Per target cell the cycles come in the iteration order of a set of
        them in `to_map`'s refs, which CPython fixes by its tuple hash and
        table layout: it numbers the glued cells, and through them the
        relator order of a presentation.  So this order reaches the answer
        of `intersect` over a complex with a relator of exponent above 1,
        in the relator order and cell numbering only: 62 of the 80
        `intersect/aab3` cases of the answer corpus.  It is the one place in
        the package where a set's order reaches an output."""
        if self.packed:
            return 0
        self.packed = True
        ref = self.edge_refs()
        alive = [e + 1 for e, k in enumerate(ref) if k]
        present: dict[int, set[tuple[int, ...]]] = {}
        for cycle, r in zip(self.cycles, self.cell_over):
            if cycle is not None:
                present.setdefault(r, set()).add(_renumbered(cycle, ref))
        return sum(self.add_packet(r, _renumbered(cycle, alive))
                   for r, cycles in present.items() for cycle in cycles)


def _renumbered(cycle: tuple[int, ...], ref) -> tuple[int, ...]:
    """The cycle with each ref ±d read as ±ref[d - 1]."""
    return tuple(ref[d - 1] if d > 0 else -ref[-d - 1] for d in cycle)


# --- folding ----------------------------------------------------------------


def end_stars(m: CombMap) -> list[dict[int, list[int]]]:
    """Per vertex: image directed edge -> every domain directed edge over it
    leaving that vertex, in edge order."""
    stars: list[dict[int, list[int]]] = [{} for _ in range(m.domain.num_vertices)]
    for e, (src, tgt) in enumerate(m.domain.edges):
        stars[src].setdefault(m.edge_image[e], []).append(e + 1)
        stars[tgt].setdefault(-m.edge_image[e], []).append(-(e + 1))
    return stars


def find_fold(m: CombMap) -> tuple[int, int, int] | None:
    """First (vertex, d1, d2) with two distinct edge-ends sharing an image:
    at the first vertex with a repeated image, the smallest such image and
    the two smallest refs over it."""
    for v, star in enumerate(end_stars(m)):
        img = min((img for img, ends in star.items() if len(ends) > 1), default=None)
        if img is not None:
            d1, d2 = sorted(star[img])[:2]
            return v, d1, d2
    return None


# --- packets ----------------------------------------------------------------


def packet_mates(x: Complex2, r: int, cycle) -> list[tuple[int, ...]]:
    """Rewritten cycles of the packet of cell r through a cycle over r: its
    rotations by the multiples of the period, the cycle itself first."""
    p, n = x.periods[r]
    cycle = tuple(cycle)
    return [cycle[k * p:] + cycle[:k * p] for k in range(n)]


def is_packed(m: CombMap) -> tuple[bool, tuple[int, int] | None]:
    """Packed iff every lift of a 2-cell extends to a lift of its packet,
    i.e. all period rotations of its rewritten cycle are present as cells."""
    cells = [(r, m.rewritten_cycle(c)) for c, (r, _offset, _reflected) in enumerate(m.cell_image)]
    present = set(cells)
    for c, (r, cycle) in enumerate(cells):
        for k, mate in enumerate(packet_mates(m.codomain, r, cycle)):
            if (r, mate) not in present:
                return False, (c, k)
    return True, None


# --- fiber products ---------------------------------------------------------


def based_fiber_product(a: Domain, b: Domain) -> CombMap:
    """The based component of the fiber product of the maps of two live
    domains, as a map to their common codomain, read off the domains
    without changing them.

    Vertices are the image-matching root pairs reached from the basepoint
    pair (0, 0), numbered in sorted order, so that pair is vertex 0, the
    product's basepoint; edges are the image-matching pairs of
    live edge ends between them, oriented over the positive codomain edge
    and numbered by (a-edge, b-edge); each pair of live cells over a common
    target cell whose rewritten cycles start at a reached pair gives the
    cell whose boundary pairs those cycles position by position, numbered
    by (a-cell, b-cell).  `to_map` numbers roots, live edges and live cells
    in ascending id order, so these orders are those of the two built maps
    and the product is the based component of theirs, numbered as in the
    all-pairs product.  Neither domain need be an immersion: every pair of
    ends with equal image is followed.

    The b-cells paired with an a-cell over r are read off `b.sides`: at
    each reached partner, each b-end over ∂R[0] and the cells of side
    (r, 0) at its edge.  Such a cell's first ref is that end itself, as an
    edge and its reverse have different images.
    """
    if a.codomain != b.codomain:
        raise MapError("fiber product needs a common codomain")
    root_a, root_b, edges_a, edges_b = a.roots(), b.roots(), a.edges, b.edges

    seen = {(0, 0)}  # read only sorted, as is `found`, so no set or stack order is seen
    stack = [(0, 0)]
    found = []  # per (a-end, b-end) over a positive codomain edge: its refs, tail and head pairs
    while stack:
        tail = u, v = stack.pop()
        for img, ends_a in a.stars[u].items():
            ends_b = b.stars[v].get(img, ())
            for da in ends_a:
                ha = root_a[edges_a[da - 1][1] if da > 0 else edges_a[-da - 1][0]]
                for db in ends_b:
                    head = ha, root_b[edges_b[db - 1][1] if db > 0 else edges_b[-db - 1][0]]
                    if img > 0:
                        found.append((abs(da), abs(db), da, db, img, tail, head))
                    if head not in seen:
                        seen.add(head)
                        stack.append(head)
    vertices = sorted(seen)
    vid = {p: i for i, p in enumerate(vertices)}
    found.sort()  # by (a-edge, b-edge), which no two pairs share
    eid: dict[tuple[int, int], int] = {}
    for ref, (_ea, _eb, da, db, _img, _tail, _head) in enumerate(found, start=1):
        eid[(da, db)] = ref
        eid[(-da, -db)] = -ref
    edges = [(vid[tail], vid[head]) for *_refs, tail, head in found]

    partners: dict[int, list[int]] = {}  # a-root -> its reached b-roots
    for u, v in vertices:
        partners.setdefault(u, []).append(v)
    bdry = a.codomain.cells
    cell_pairs = sorted(  # the tail of ±e is the end [0] or [1] of edge e
        (ca, cb)
        for ca, cyc in enumerate(a.cycles) if cyc is not None
        for r in (a.cell_over[ca],)
        for v in partners.get(root_a[edges_a[abs(cyc[0]) - 1][cyc[0] < 0]], ())
        for db in b.stars[v].get(bdry[r][0], ())
        for cb in b.sides.get(abs(db) - 1, {}).get((r, 0), ())
    )
    cells = [tuple(eid[p] for p in zip(a.cycles[ca], b.cycles[cb])) for ca, cb in cell_pairs]
    prod = Complex2(len(vertices), edges, cells)
    return CombMap(prod, a.codomain, [0] * len(vertices),
                   [img for *_ends, img, _tail, _head in found],
                   [(a.cell_over[ca], 0, False) for ca, _ in cell_pairs])

