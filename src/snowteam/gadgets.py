"""Set-Cover reduction gadget: builder, walk translations, hard families.

The gadget digraph for a set system (U, S, k) has, per item i, one element
component made of vertical 5-vertex paths (one per set containing i), plus a
hub z fed by k source vertices z_1..z_k and one horizontal path per set
threading the v-row of the components of its items.  All vertices are
facilities; exactly the sources hold one plough each.  Covers of size k and
clearing solutions translate into each other constructively.

Vertex ids are dense: element components in item order (u_i first, then per
containing set j: u_{i,j}, u'_{i,j}, v_{i,j}, v'_{i,j}), then z, then
z_1..z_k.

Reading a cover off a verifying solution: take the sets t whose row's first
arc, z -> v_{s,t} with s the least item of set t, is cleared.  These are at
most k sets covering U:

* At most k.  The gadget is a DAG, so a walk passes z at most once, and only
  the k ploughs at z_1..z_k reach z: at most k arcs out of z are cleared.
* One plough per branch.  Each u'_{i,j} is a facility whose only in-arc
  leaves u_i, so every out-arc of u_i is cleared.  Only the ploughs of the
  component of item i reach u_i, as many as its out-arcs, and each passes
  u_i at most once.  So exactly one walk enters each u'_{i,j}.
* A row with an uncleared first arc has no cleared arc.  Its first vertex
  v_{s,t} is entered only from z or u'_{s,t}, so only the branch plough of
  u'_{s,t} reaches it, and that plough must go on to v'_{s,t}: that
  facility's only in-arc leaves v_{s,t}.  So the next row arc is not
  cleared either, and by induction along the row no arc of row t is.
* A cover.  The component of item i meets the rest of the graph only through
  the row arcs at its v-vertices, and it must be joined to the facility z.
  So some row through item i has a cleared arc, hence a cleared first arc.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .digraph import Instance, ParseError, SolutionWalks, Walk, _Value, serialize_instance
from .digraph import _content_lines, _record, verify_st_solution


class SetCoverInstance(_Value):
    """Universe {1..n_items}, family of item subsets, budget k."""

    _fields = __slots__ = ("n_items", "sets", "k")

    def __init__(self, n_items: int, sets: tuple[tuple[int, ...], ...], k: int):
        if n_items < 1:
            raise ValueError("need at least one item")
        if k < 1:
            raise ValueError("budget k must be positive")
        covered: set[int] = set()
        for s in sets:
            if error := _set_error(s, n_items):
                raise ValueError(error)
            covered.update(s)
        if covered != set(range(1, n_items + 1)):
            missing = sorted(set(range(1, n_items + 1)) - covered)
            raise ValueError(f"items {missing} belong to no set")
        self.n_items = n_items
        self.sets = sets
        self.k = k

    @property
    def m(self) -> int:
        return len(self.sets)

    def containing(self, item: int) -> list[int]:
        """1-based indices of the sets containing the item."""
        return [j + 1 for j, s in enumerate(self.sets) if item in s]

    def is_cover(self, indices) -> bool:
        got: set[int] = set()
        for j in indices:
            if not (1 <= j <= self.m):
                return False
            got.update(self.sets[j - 1])
        return got == set(range(1, self.n_items + 1))


def _set_error(s: tuple[int, ...], n_items: int) -> Optional[str]:
    """Why s is not a nonempty strictly ascending subset of 1..n_items, or None."""
    if not s:
        return "empty set in the family"
    if list(s) != sorted(set(s)):
        return f"set {s} must be strictly ascending"
    if not all(1 <= x <= n_items for x in s):
        return f"set {s} mentions an unknown item"
    return None


def parse_set_cover(text) -> SetCoverInstance:
    """Format: ``sc <n> <m> <k>`` then m lines ``s <item> <item> ...``."""
    lines = _content_lines(text) or [(1, "")]  # no content: a blank header
    ln, head = lines[0]
    n, m, k = _record(ln, head, "sc <n> <m> <k>", "header")
    if len(lines) != 1 + m:
        raise ParseError(ln, f"expected {1 + m} content lines, found {len(lines)}")
    sets = []
    for ln, line in lines[1:]:
        items = tuple(_record(ln, line, "s <item> ..."))
        if error := _set_error(items, n):
            raise ParseError(ln, error)
        sets.append(items)
    try:
        return SetCoverInstance(n_items=n, sets=tuple(sets), k=k)
    except ValueError as e:
        raise ParseError(lines[0][0], str(e)) from None


def serialize_set_cover(sc: SetCoverInstance) -> str:
    out = [f"sc {sc.n_items} {sc.m} {sc.k}"]
    for s in sc.sets:
        out.append("s " + " ".join(str(x) for x in s))
    return "\n".join(out) + "\n"


def _format_name(name: tuple) -> str:
    """Printed form of a structured name: u_i, u_{i,j}, u'_{i,j}, v_{i,j},
    v'_{i,j}, z or z_l."""
    kind, *idx = name
    if kind == "uc":
        return f"u_{idx[0]}"
    if kind == "z":
        return "z"
    if kind == "zs":
        return f"z_{idx[0]}"
    prime = "'" if kind in ("up", "vp") else ""
    return f"{kind[0]}{prime}_{{{idx[0]},{idx[1]}}}"


class GadgetLayout(_Value):
    """Built gadget plus the structured-name -> dense-id map."""

    _fields = ("sc", "instance", "names")
    __slots__ = (*_fields, "_name_by_id")

    def __init__(self, sc: SetCoverInstance, instance: Instance, names: dict[tuple, int]):
        self.sc = sc
        self.instance = instance
        self.names = names

    def name_of(self, vid: int) -> str:
        """Printed name of vertex vid; KeyError when no vertex has that id.
        The id -> name map is built on first use and kept."""
        try:
            by_id = self._name_by_id
        except AttributeError:
            by_id = self._name_by_id = {i: name for name, i in self.names.items()}
        return _format_name(by_id[vid])


def build_gadget(sc: SetCoverInstance) -> GadgetLayout:
    names: dict[tuple, int] = {}
    counter = itertools.count()
    for i in range(1, sc.n_items + 1):
        names[("uc", i)] = next(counter)
        for j in sc.containing(i):
            for kind in ("u", "up", "v", "vp"):
                names[(kind, i, j)] = next(counter)
    names[("z",)] = next(counter)
    for l in range(1, sc.k + 1):
        names[("zs", l)] = next(counter)
    n = next(counter)

    arcs: set[tuple[int, int]] = set()
    for i in range(1, sc.n_items + 1):
        for j in sc.containing(i):
            arcs.add((names[("u", i, j)], names[("uc", i)]))
            arcs.add((names[("uc", i)], names[("up", i, j)]))
            arcs.add((names[("up", i, j)], names[("v", i, j)]))
            arcs.add((names[("v", i, j)], names[("vp", i, j)]))
    for t in range(1, sc.m + 1):
        row = [names[("z",)]] + [names[("v", x, t)] for x in sc.sets[t - 1]]
        arcs.update(zip(row, row[1:]))
    for l in range(1, sc.k + 1):
        arcs.add((names[("zs", l)], names[("z",)]))

    source_names = [("u", i, j) for i in range(1, sc.n_items + 1) for j in sc.containing(i)]
    source_names += [("zs", l) for l in range(1, sc.k + 1)]
    ploughs = {names[s]: 1 for s in source_names}
    inst = Instance(
        n=n,
        arcs=frozenset(arcs),
        facility=tuple(True for _ in range(n)),
        ploughs=tuple(ploughs.get(v, 0) for v in range(n)),
    )
    expected_order = 4 * sum(len(s) for s in sc.sets) + sc.n_items + sc.k + 1
    assert n == expected_order
    return GadgetLayout(sc=sc, instance=inst, names=names)


def _vertical_path(g: GadgetLayout, i: int, j: int) -> Walk:
    nm = g.names
    return Walk(
        (nm[("u", i, j)], nm[("uc", i)], nm[("up", i, j)], nm[("v", i, j)], nm[("vp", i, j)])
    )


def _horizontal_walk(g: GadgetLayout, t: int, l: int) -> Walk:
    """(z_t, z) followed by the full horizontal path of set l."""
    nm = g.names
    return Walk((nm[("zs", t)], nm[("z",)]) + tuple(nm[("v", x, l)] for x in g.sc.sets[l - 1]))


def cover_to_walks(g: GadgetLayout, cover) -> SolutionWalks:
    """Translate a size-k cover into a verifying clearing solution."""
    cover = sorted(set(cover))
    if len(cover) != g.sc.k:
        raise ValueError(f"cover must have exactly k={g.sc.k} distinct sets, got {cover}")
    if not g.sc.is_cover(cover):
        raise ValueError(f"{cover} is not a cover of the universe")
    walks = [
        _vertical_path(g, i, j)
        for i in range(1, g.sc.n_items + 1)
        for j in g.sc.containing(i)
    ]
    walks += [_horizontal_walk(g, t, l) for t, l in enumerate(cover, start=1)]
    sol = SolutionWalks(tuple(walks))
    ok, reason = verify_st_solution(g.instance, sol)
    assert ok, f"constructed solution must verify: {reason}"
    return sol


def walks_to_cover(g: GadgetLayout, sol: SolutionWalks) -> tuple[int, ...]:
    """Read a set cover off a verifying solution: the sets whose rows leave z
    on a cleared arc (the module docstring proves it is a cover of <= k sets)."""
    ok, reason = verify_st_solution(g.instance, sol)
    if not ok:
        raise ValueError(f"walks must verify before a cover is read off them: {reason}")
    cleared, z = sol.arc_union(), g.names[("z",)]
    cover = tuple(
        t for t, s in enumerate(g.sc.sets, 1) if (z, g.names[("v", s[0], t)]) in cleared
    )
    assert g.sc.is_cover(cover) and len(cover) <= g.sc.k, "cleared rows must induce a cover"
    return cover


def solve_set_cover_exact(sc: SetCoverInstance) -> Optional[tuple[int, ...]]:
    """Brute force over k-subsets of the family; None when no cover exists."""
    if sc.m > 20:
        raise ValueError("exact set-cover search limited to m <= 20")
    for combo in itertools.combinations(range(1, sc.m + 1), min(sc.k, sc.m)):
        if sc.is_cover(combo):
            return combo
    return None


def gen_fig3(n: int) -> Instance:
    """Zigzag family: two end facilities that need n-1 ploughs to reconnect."""
    if n < 3 or n % 2 == 0:
        raise ValueError("family is defined for odd n >= 3")
    arcs = []
    for v in range(1, n, 2):
        arcs += [(v, v - 1), (v, v + 1)]
    return Instance(
        n=n,
        arcs=frozenset(arcs),
        facility=tuple(v in (0, n - 1) for v in range(n)),
        ploughs=tuple(2 if v % 2 else 0 for v in range(n)),
    )


def serialize_gadget(g: GadgetLayout) -> str:
    """Instance text with a comment block documenting the name map."""
    lines = ["# set-cover gadget; vertex names:"]
    for name, vid in sorted(g.names.items(), key=lambda item: item[1]):
        lines.append(f"#   {vid} = {_format_name(name)}")
    return "\n".join(lines) + "\n" + serialize_instance(g.instance)
