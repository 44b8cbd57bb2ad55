"""Candidate directed trees: free-tree enumeration, orientations, plough demand.

Free trees are the center-rooted canonical level sequences of Wright,
Richmond, Odlyzko and McKay.  The canonical level sequences of rooted trees
are walked by the successor rule (constant amortized time), and a sequence
is kept exactly when its root is the tree's canonical center.  The kept
sequence is the tree's layout; nothing is relabeled:

- vertex 0 is the root and ids are in preorder, so edge i joins vertex i+1
  to its parent, and ``FreeTree.code`` is the depth of each vertex;
- each vertex's children are ordered by subtree code, largest first, where a
  subtree's code is its rooted level sequence;
- a taller subtree always has the larger code, so the tallest child comes
  first, and when the tree has a second center, it is vertex 1.

A TreeCandidate is an orientation of a free tree together with the plough
demand L(v) = max(0, outdeg(v) - indeg(v)): the number of walks that must
start at v to cover the arcs by arc-disjoint paths.

``orient_tree`` is the one orientation loop: one flat loop in one
generator frame.  An orientation is a mask, bit i set when edge i points
parent -> child, and masks come out in increasing integer order.  The loop
fixes edges depth first from the last preorder edge down to edge 0, keeps
per-edge state (the direction tried, and the demand, count and mask so
far) and carries each vertex's out - in balance, undone in place on the
way back.  The per-tree constants it reads are computed once per
``FreeTree`` and cached on it (``FreeTree.orienting``).
Vertex v's demand is final once edge v-1 is set, so a budget cuts a branch
as soon as the final demands exceed it.  A sources bound cuts the same way:
it caps the vertices of in-degree at most 1 or positive demand, the tree
vertices that a normal-form solution (``solvers``) places on facilities.
Leaves always count, so they are counted up front, and any other vertex
once its last edge is set.  A tree with more leaves than sources, or than
twice the budget, is skipped whole.  With dedupe it keeps the least mask
of each directed-isomorphism class, recognised by two local rules on the
mask that the layout makes exact, in the spirit of McKay's isomorph-free
generation: no class key and no set of seen classes.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .digraph import _Value, reach

MAX_ORDER = 16

#: number of free trees on 1..9 vertices (used as a quick self-check)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47)


class FreeTree(_Value):
    """Unrooted tree in canonical layout; edges are (parent, child) in
    preorder, and code is the depth of each vertex in the canonical layout."""

    _fields = ("order", "edges", "code")
    __slots__ = (*_fields, "_orienting")

    def __init__(self, order: int, edges: tuple[tuple[int, int], ...], code: tuple[int, ...]):
        self.order = order
        self.edges = edges
        self.code = code

    def code_str(self) -> str:
        return " ".join(str(d) for d in self.code)

    @property
    def orienting(self) -> tuple:
        """(ends, low, leaves, twin, half), the constants ``orient_tree``
        reads, computed on first use and kept with the tree: ends[i] =
        ((child, parent), (parent, child)) for edge i; low[v], the least
        balance at which a non-leaf v counts towards sources (a leaf never
        reaches it); leaves, the number of vertices of degree at most 1;
        and ``_symmetries``' (twin, half)."""
        try:
            return self._orienting
        except AttributeError:
            pass
        deg = [0] * self.order
        for p, c in self.edges:
            deg[p] += 1
            deg[c] += 1
        low = tuple(min(1, d - 2) if d > 1 else d + 1 for d in deg)
        self._orienting = (
            tuple(((c, p), (p, c)) for p, c in self.edges),
            low,
            sum(d <= 1 for d in deg),
            *_symmetries(self),
        )
        return self._orienting


class TreeCandidate(NamedTuple):
    """Directed tree with plough-demand weights.

    Layout invariant (``tpe.placements`` and ``tpe.build_circuit`` rely
    on it): arc i joins vertex i+1 to its parent, which has a smaller
    id; ``orientation[i]`` says whether it points parent -> child, and
    ``free_code[v]`` is v's depth below vertex 0.
    """

    order: int
    arcs: tuple[tuple[int, int], ...]
    demand: tuple[int, ...]
    free_code: tuple[int, ...]
    orientation: tuple[bool, ...]  # per canonical edge: True = parent->child

    def total_demand(self) -> int:
        return sum(self.demand)

    def code_str(self) -> str:
        levels = " ".join(str(d) for d in self.free_code)
        if not self.orientation:
            return levels
        dirs = "".join("d" if down else "u" for down in self.orientation)
        return f"{levels} / {dirs}"


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical level sequences of rooted trees on n vertices (root level 1)."""
    if n == 1:
        yield [1]
        return
    seq = list(range(1, n + 1))
    while True:
        yield seq[:]
        p = next((i for i in range(n - 1, -1, -1) if seq[i] > 2), -1)
        if p < 0:
            return
        q = next(i for i in range(p - 1, -1, -1) if seq[i] == seq[p] - 1)
        span = p - q
        seq = seq[:p]
        for i in range(p, n):
            seq.append(seq[i - span])


def _levels_to_parents(levels: list[int]) -> list[int]:
    """Parent of each vertex of a preorder level sequence (-1 at the root),
    whatever the root's level."""
    parents = [-1] * len(levels)
    stack = [0]
    for i in range(1, len(levels)):
        while levels[stack[-1]] != levels[i] - 1:
            stack.pop()
        parents[i] = stack[-1]
        stack.append(i)
    return parents


@lru_cache(maxsize=None)
def _free_trees_of_order(order: int) -> tuple[FreeTree, ...]:
    """The rooted level sequences whose root is the tree's canonical center.

    Vertex 0 is a center when its first (tallest) branch is at most one
    level taller than the rest of the tree.  When it is exactly one taller,
    vertex 1 is the second center, and the sequence is kept only if its code
    is at least the code rooted at vertex 1.  Rerooted there, the rest of
    the tree becomes vertex 1's tallest branch, so the two codes are "first
    branch, then the rest's branches" against "the rest, then the first
    branch's branches", and they compare as the first branch against the
    rest, each as a rooted level sequence (a proper prefix is smaller).
    """
    found: list[FreeTree] = []
    for levels in _rooted_level_sequences(order):
        split = next((i for i in range(2, order) if levels[i] == 2), order)
        first = levels[1:split]  # the branch at vertex 1
        rest = [1] + levels[split:]  # vertex 0 with its other branches
        rise = max(first, default=1) - max(rest)
        if rise > 1 or (rise == 1 and [lv - 1 for lv in first] < rest):
            continue
        parents = _levels_to_parents(levels)
        found.append(
            FreeTree(
                order=order,
                edges=tuple((parents[i], i) for i in range(1, order)),
                code=tuple(lv - 1 for lv in levels),
            )
        )
    found.sort(key=lambda t: t.code)
    return tuple(found)


def enumerate_free_trees(order: int) -> Iterator[FreeTree]:
    """One representative per isomorphism class, in canonical code order."""
    if not (1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    yield from _free_trees_of_order(order)


def plough_demand(arcs, order: Optional[int] = None) -> tuple[int, ...]:
    """L(v) = max(0, outdeg(v) - indeg(v)); input must be a directed tree."""
    arcs = [tuple(a) for a in arcs]
    if order is None:
        order = max((max(u, v) for u, v in arcs), default=0) + 1
    if len(arcs) != order - 1:
        raise ValueError("a tree on n vertices has n-1 arcs")
    if not all(0 <= v < order for arc in arcs for v in arc):
        raise ValueError(f"arc endpoint outside the vertices 0..{order - 1}")
    if len(set(frozenset(a) for a in arcs)) != len(arcs):
        raise ValueError("repeated underlying edge")
    both = [0] * order  # bit v of both[u]: u and v share an arc
    out = [0] * order
    inc = [0] * order
    for u, v in arcs:
        both[u] |= 1 << v
        both[v] |= 1 << u
        out[u] += 1
        inc[v] += 1
    if reach(1, both) != (1 << order) - 1:
        raise ValueError("underlying graph is not connected")
    return tuple(max(0, o - i) for o, i in zip(out, inc))


def _symmetries(tree: FreeTree) -> tuple[tuple[int, ...], int]:
    """(twin, half) for a tree in canonical layout: twin[i] is the subtree
    size of vertex i+1 when its next sibling's subtree has the same code,
    else 0; half is s when the tree is two copies of one rooted tree on s
    vertices, rooted at vertices 0 and 1 and joined by edge 0, else 0."""
    n, code = tree.order, tree.code
    end = [next((j for j in range(v + 1, n) if code[j] <= code[v]), n) for v in range(n)]
    twin = [0] * (n - 1)
    for c in range(1, n):
        d = end[c]  # the next sibling, if it has c's depth
        if d < n and code[d] == code[c] and code[c : end[c]] == code[d : end[d]]:
            twin[c - 1] = end[c] - c
    s = n // 2
    mirror = n % 2 == 0 and [d - 1 for d in code[1 : s + 1]] == [0, *code[s + 1 :]]
    return tuple(twin), s if mirror else 0


def orient_tree(
    tree: FreeTree,
    dedupe: bool = False,
    budget: Optional[int] = None,
    sources: Optional[int] = None,
) -> Iterator[TreeCandidate]:
    """Orientations of tree in increasing mask order, bit i set when edge i
    points parent -> child.  With budget, only those of total demand at most
    budget; with sources, only those with at most sources vertices of
    in-degree at most 1 or positive demand; dedupe keeps the least mask of
    each directed-isomorphism class.  tree must come from
    ``enumerate_free_trees``: dedupe relies on its canonical layout.

    One flat loop in one generator frame builds the masks depth first from
    the last preorder edge down to edge 0, trying up before down, which is
    increasing integer order.  Per edge it keeps the direction tried and
    the demand, count and mask so far, and it moves each balance back in
    place when it backs up; each candidate is built from the arcs,
    demands and directions kept along the way.  The constants of the tree
    (arcs, counting thresholds, leaves, twins and mirror) come from
    ``FreeTree.orienting``, computed once per tree.  Edge i joins
    vertex i+1 to its parent, and every other edge at vertex i+1 comes later
    in preorder, so once edge i is set the demand of vertex i+1 is final.  A
    branch is cut as soon as the final demands exceed the budget; the root's
    demand is final at the leaf.  Demands come from the carried balances.

    Sources.  A vertex of degree d and balance b = out - in has in-degree
    (d - b)/2, so it counts exactly when b >= min(1, d - 2).  A leaf always
    counts: a tree with more leaves than sources yields nothing.  Every
    other vertex is counted where the budget reads its final demand, and a
    branch is cut as soon as the count exceeds sources.

    Leaves.  An oriented tree of total demand D is the union of D
    arc-disjoint directed paths.  While arcs remain, the first vertex of a
    longest directed path among them has out > in; follow remaining arcs
    forward from it until none leaves, and remove that path.  Its start had
    out > in and loses one, and its end, with no remaining arc leaving it,
    keeps out <= in, so the remaining demand drops by exactly one.  A
    leaf's one arc lies on one path, which starts or ends at the leaf, and
    the D paths have 2D ends.  So a tree on two or more vertices with more
    than 2*budget leaves yields nothing.

    Dedupe.  Child c's block is edge c-1 and the edges below c: the bit
    range c-1 .. c+size(c)-2.  The tree's automorphisms are generated by
    exchanging the blocks of twin siblings (consecutive siblings with equal
    subtree codes, hence laid out identically) and, when the tree is a
    mirror, two copies of one rooted tree on s vertices joined by edge 0,
    by swapping the halves, bits 1..s-1 with bits s..2s-2, which reverses
    edge 0.  Higher bits weigh more, so a mask is the least of its class
    exactly when

    (a) block(c) >= block(c') for each child c with a twin next sibling c',
        both read as integers, checked once edge c-1 is set; and
    (b) on a mirror, bits s..2s-2 <= bits 1..s-1 and, on a tie, bit 0 is
        clear (edge 0 points up), checked at the leaf.

    Directed-isomorphic orientations have the same demand multiset and the
    same in-degree multiset, so budget and sources remove whole classes: the
    output is the unbounded output filtered by both, in the same order.
    """
    n = tree.order
    m = n - 1
    edges = tree.edges
    ends, low, leaves, twin, half = tree.orienting
    cap = m if budget is None else budget  # total demand never exceeds the arc count
    room = n if sources is None else sources
    if leaves > room or (n > 1 and leaves > 2 * cap):
        return
    if not dedupe:
        twin, half = (0,) * m, 0
    code = tree.code
    bal = [0] * n  # outdeg - indeg over the edges set so far
    arcs: list[tuple[int, int]] = [(0, 0)] * m
    down = [False] * m
    dem = [0] * n
    tried = [-1] * m  # the direction edge i holds: -1 none yet, 0 up, 1 down
    # done[i], hits[i], masks[i]: with edges i..m-1 set, the final demand of
    # vertices i+1..n-1, the leaves plus the other counting vertices there,
    # and the mask so far
    done = [0] * n
    hits = [leaves] * n
    masks = [0] * n
    i = m - 1
    while i < m:
        if i < 0:  # every edge is set; vertex 0's demand is final
            b = bal[0]
            d = b if b > 0 else 0
            mask = masks[0]
            i = 0
            if done[0] + d > cap or hits[0] + (b >= low[0]) > room:
                continue
            if half:  # (b)
                lo = (mask >> 1) & ((1 << (half - 1)) - 1)
                hi = mask >> half
                if hi > lo or (hi == lo and mask & 1):
                    continue
            dem[0] = d
            yield TreeCandidate(n, tuple(arcs), tuple(dem), code, tuple(down))
            continue
        p, c = edges[i]
        t = tried[i] + 1
        if t == 1:  # up -> down
            bal[p] += 2
            bal[c] -= 2
        else:  # none -> up, or down -> none
            bal[p] -= 1
            bal[c] += 1
            if t == 2:
                tried[i] = -1
                i += 1
                continue
        tried[i] = t
        mask = masks[i + 1] | (t << i)
        size = twin[i]
        if size:  # (a)
            block = (1 << size) - 1
            if ((mask >> i) & block) < ((mask >> (i + size)) & block):
                continue
        b = bal[c]
        d = b if b > 0 else 0
        total = done[i + 1] + d
        counted = hits[i + 1] + (b >= low[c])
        if total > cap or counted > room:
            continue
        arcs[i] = ends[i][t]
        down[i] = t == 1
        dem[c] = d
        done[i], hits[i], masks[i] = total, counted, mask
        i -= 1


def candidate_from_code(code: str) -> TreeCandidate:
    """Parse a printable candidate code: depth sequence, then '/' and one
    direction character per non-root vertex ('d' = away from parent).  Depths
    are ASCII decimal, as every integer field of the text formats."""
    if "/" in code:
        levels_part, dirs = code.split("/", 1)
        dirs = dirs.strip()
    else:
        levels_part, dirs = code, ""
    words = levels_part.split()
    if not all(re.fullmatch(r"-?[0-9]+", x) for x in words):
        raise ValueError(f"bad depth sequence in {code!r}")
    levels = [int(x) for x in words]
    order = len(levels)
    if order == 0 or levels[0] != 0:
        raise ValueError("depth sequence must start with 0")
    if len(dirs) != order - 1 or any(c not in "du" for c in dirs):
        raise ValueError("need one 'd'/'u' per non-root vertex after '/'")
    for i in range(1, order):
        if not (1 <= levels[i] <= levels[i - 1] + 1):
            raise ValueError(f"depth jump at position {i} in {code!r}")
    parents = _levels_to_parents(levels)
    arcs = tuple(
        (parents[i], i) if dirs[i - 1] == "d" else (i, parents[i]) for i in range(1, order)
    )
    demand = plough_demand(arcs, order=order) if order > 1 else (0,)
    return TreeCandidate(
        order=order,
        arcs=arcs,
        demand=demand,
        free_code=tuple(levels),
        orientation=tuple(c == "d" for c in dirs),
    )


def candidate_stream(
    f_count: int,
    max_order: int,
    budget: Optional[int] = None,
    sources: Optional[int] = None,
) -> Iterator[TreeCandidate]:
    """Candidates with f_count <= order <= max_order, total demand within
    budget and at most sources vertices of in-degree at most 1 or positive
    demand (``orient_tree``), one per directed-isomorphism class.

    Empty for f_count = 0: callers resolve the at-most-one-facility case
    before enumerating.  Deterministic order: by order, then free-tree code,
    then orientation.  A max_order above MAX_ORDER raises ValueError before
    the first candidate.
    """
    if max_order > MAX_ORDER:
        raise ValueError(f"max_order {max_order} exceeds the enumeration cap {MAX_ORDER}")
    if f_count <= 0:
        return
    for order in range(f_count, max_order + 1):
        for tree in enumerate_free_trees(order):
            yield from orient_tree(tree, dedupe=True, budget=budget, sources=sources)
