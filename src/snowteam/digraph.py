"""Digraph instance model, walks, transitive closure and the solution verifier.

An instance is a simple digraph (no self-loops, no repeated arcs; antiparallel
pairs allowed) with two vertex weightings: a facility flag F and a plough
count B.  A solution is a list of directed walks, one per plough, whose
cleared arcs must connect all facilities in the underlying graph.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property


class ParseError(ValueError):
    """Malformed instance or walk text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Instance:
    """Digraph with facility flags and per-vertex plough counts.

    Immutable; its derived data is two bitmask rows, ``out_mask`` and
    ``in_mask``, two bitmasks, ``fac_mask`` and ``base_mask``, and, on first
    use, the ``thresholds`` rows.  Plough counts are capped at n-1 per
    vertex (more ploughs at one vertex can never help).

    Outside input goes through the constructor (``Instance(...)``,
    ``make_instance``, ``parse_instance``), which validates the arcs and
    weights, stores them as a frozenset of int pairs, bools and ints, and
    builds the rows from ``arcs``.  An instance derived from one
    already built (``_reweighted``, ``condense``, ``transitive_closure``) is
    assembled from rows its builder holds and is not checked again.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    facility: tuple[bool, ...]
    ploughs: tuple[int, ...]
    # bit x of out_mask[w] / in_mask[w]: arc w -> x / x -> w
    out_mask: tuple[int, ...] = field(init=False, compare=False, repr=False)
    in_mask: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # bit v: v is a facility / v holds at least one plough
    fac_mask: int = field(init=False, compare=False, repr=False)
    base_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("instance needs at least one vertex")
        if len(self.facility) != self.n or len(self.ploughs) != self.n:
            raise ValueError("facility/plough vectors must have length n")
        try:
            pairs = [(operator.index(u), operator.index(v)) for u, v in self.arcs]
            ploughs = tuple(map(operator.index, self.ploughs))
        except TypeError:
            raise ValueError("arc ends and plough counts must be integers") from None
        outs, ins = [0] * self.n, [0] * self.n
        for u, v in pairs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            outs[u] |= 1 << v
            ins[v] |= 1 << u
        arcs = frozenset(pairs)
        if len(arcs) != len(pairs):
            (u, v), _ = Counter(pairs).most_common(1)[0]
            raise ValueError(f"duplicate arc ({u},{v})")
        for v, b in enumerate(ploughs):
            if b < 0:
                raise ValueError(f"negative plough count at {v}")
            if b > self.n - 1:
                raise ValueError(f"plough count {b} at {v} exceeds n-1")
        # stored as their canonical types: hashing, equality and the text
        # format then agree with parse_instance's instances
        self.__dict__.update(arcs=arcs, facility=tuple(map(bool, self.facility)), ploughs=ploughs)
        _fill(self, tuple(outs), tuple(ins))

    def _reweighted(self, facility: tuple[bool, ...], ploughs: tuple[int, ...]) -> Instance:
        """The instance on the same arcs with new weights, sharing ``arcs`` and
        the rows.  The weights must be valid for n (each count at most n-1)."""
        return _derive(self.n, self.arcs, self.out_mask, self.in_mask, facility, ploughs)

    @cached_property
    def thresholds(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(pays, outs, ins), each n+1 bitmasks: pays[d], outs[j] and ins[j]
        hold the vertices with at least d ploughs, j out-neighbours and j
        in-neighbours.  Row n is empty in all three (a count is at most n-1).
        Built on first use, not with the instance."""
        return tuple(
            _at_least(counts, self.n)
            for counts in (
                self.ploughs,
                [m.bit_count() for m in self.out_mask],
                [m.bit_count() for m in self.in_mask],
            )
        )

    def facilities(self) -> frozenset[int]:
        return frozenset(bits(self.fac_mask))

    def bases(self) -> frozenset[int]:
        return frozenset(bits(self.base_mask))

    def total_ploughs(self) -> int:
        return sum(self.ploughs)


def _fill(inst: Instance, out_mask: tuple[int, ...], in_mask: tuple[int, ...]) -> None:
    """Set inst's rows and its facility and base masks (from its weights)."""
    fac = base = 0
    bit = 1
    for f, b in zip(inst.facility, inst.ploughs):
        if f:
            fac |= bit
        if b:
            base |= bit
        bit <<= 1
    # frozen: fields are set in the instance's dict, as object.__setattr__ would
    inst.__dict__.update(out_mask=out_mask, in_mask=in_mask, fac_mask=fac, base_mask=base)


def _derive(n, arcs, out_mask, in_mask, facility, ploughs) -> Instance:
    """An instance from rows that match arcs and weights valid for n,
    without the constructor's checks and arc scan."""
    inst = object.__new__(Instance)
    inst.__dict__.update(n=n, arcs=arcs, facility=facility, ploughs=ploughs)
    _fill(inst, out_mask, in_mask)
    return inst


def _from_out_rows(out_mask: list[int], facility, ploughs) -> Instance:
    """The instance whose arcs are out_mask's bits (no self-loops), with
    its arc set and in rows read off those rows."""
    n = len(out_mask)
    arcs, ins = [], [0] * n
    for s, row in enumerate(out_mask):
        bit = 1 << s
        while row:
            low = row & -row
            t = low.bit_length() - 1
            arcs.append((s, t))
            ins[t] |= bit
            row ^= low
    return _derive(n, frozenset(arcs), tuple(out_mask), tuple(ins), facility, ploughs)


def _at_least(counts, n: int) -> tuple[int, ...]:
    """Row j, for j = 0..n: the bitmask of positions whose count is at least j."""
    rows = [0] * (n + 1)
    for w, c in enumerate(counts):
        rows[c] |= 1 << w
    for j in reversed(range(n)):
        rows[j] |= rows[j + 1]
    return tuple(rows)


def make_instance(n, arcs, facilities, ploughs) -> Instance:
    """Convenience constructor from any iterables / facility set / plough map."""
    facilities = set(facilities)
    keyed = facilities | set(ploughs) if isinstance(ploughs, dict) else facilities
    for v in sorted(keyed):
        if not 0 <= v < n:
            raise ValueError(f"vertex id {v} out of range for n={n}")
    fac = tuple(v in facilities for v in range(n))
    if isinstance(ploughs, dict):
        pl = tuple(ploughs.get(v, 0) for v in range(n))
    else:
        pl = tuple(ploughs)
    return Instance(n=n, arcs=frozenset(tuple(a) for a in arcs), facility=fac, ploughs=pl)


@dataclass(frozen=True)
class Walk:
    """A plough trajectory: nonempty vertex sequence; length 0 is allowed."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) == 0:
            raise ValueError("walk needs at least one vertex")

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def arcs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]


@dataclass(frozen=True)
class SolutionWalks:
    """A candidate solution: one walk per plough."""

    walks: tuple[Walk, ...]

    def start_counts(self) -> Counter:
        return Counter(w.start for w in self.walks)

    def arc_union(self) -> set[tuple[int, int]]:
        cleared: set[tuple[int, int]] = set()
        for w in self.walks:
            cleared.update(w.arcs())
        return cleared


def walks_from_lists(seqs) -> SolutionWalks:
    return SolutionWalks(tuple(Walk(tuple(s)) for s in seqs))


# ---------------------------------------------------------------------------
# text formats

def _content_lines(text) -> list[tuple[int, str]]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(i, line) for i, line in enumerate(stripped, start=1) if line]


def _record(ln: int, line: str, form: str, kind: str = "record") -> list[int]:
    """Integer fields of content line ln, a kind of line (record, header) read like form.

    In a form such as ``'v <id> <F> <B>'`` a plain first word is the line's
    tag, each ``<...>`` word an integer field, and a last word ``...``
    repeats the field before it any number of times, zero included.  An
    integer field is ASCII decimal, ``-?[0-9]+``: no ``+``, ``_`` or other digits.
    """
    want, got = form.split(), line.split()
    tag = [] if want[0].startswith("<") else want[:1]
    fields = got[len(tag) :]
    fits = len(got) == len(want) or (want[-1] == "..." and len(got) >= len(want) - 2)
    if got[: len(tag)] == tag and fits and all(re.fullmatch(r"-?[0-9]+", x) for x in fields):
        return [int(x) for x in fields]
    raise ParseError(ln, f"expected {kind} {form!r} with integer fields, got {line!r}")


def parse_instance(text) -> Instance:
    """Parse the line-oriented instance format.

    Layout: ``st <n> <m>``, then n lines ``v <id> <F> <B>`` with ids 0..n-1
    in order, then m lines ``a <u> <v>``.  ``#`` starts a comment.
    """
    lines = _content_lines(text) or [(1, "")]  # no content: a blank header
    ln, head = lines[0]
    n, m = _record(ln, head, "st <n> <m>", "header")
    if n < 1 or m < 0:
        raise ParseError(ln, f"bad header counts n={n} m={m}")
    if len(lines) != 1 + n + m:
        raise ParseError(ln, f"expected {1 + n + m} content lines, found {len(lines)}")

    facility = []
    ploughs = []
    for idx, (ln, line) in enumerate(lines[1 : 1 + n]):
        vid, f, b = _record(ln, line, "v <id> <F> <B>")
        if vid != idx:
            raise ParseError(ln, f"vertex ids must appear in order; expected {idx}, got {vid}")
        if f not in (0, 1):
            raise ParseError(ln, f"facility flag must be 0 or 1, got {f}")
        if b < 0:
            raise ParseError(ln, f"plough count must be nonnegative, got {b}")
        if b >= n:
            raise ParseError(ln, f"plough count {b} at vertex {vid} must be at most n-1={n - 1}")
        facility.append(bool(f))
        ploughs.append(b)

    arcs: set[tuple[int, int]] = set()
    for ln, line in lines[1 + n :]:
        u, v = _record(ln, line, "a <u> <v>")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(ln, f"arc ({u},{v}) references an unknown vertex")
        if u == v:
            raise ParseError(ln, f"self-loop ({u},{u}) is not allowed")
        if (u, v) in arcs:
            raise ParseError(ln, f"duplicate arc ({u},{v})")
        arcs.add((u, v))

    return Instance(n=n, arcs=frozenset(arcs), facility=tuple(facility), ploughs=tuple(ploughs))


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; round-trips through parse_instance."""
    out = [f"st {inst.n} {len(inst.arcs)}"]
    for v in range(inst.n):
        out.append(f"v {v} {int(inst.facility[v])} {inst.ploughs[v]}")
    for u, v in sorted(inst.arcs):
        out.append(f"a {u} {v}")
    return "\n".join(out) + "\n"


def parse_walks(text) -> SolutionWalks:
    """One walk per line as space-separated vertex ids; empty file = no walks."""
    return SolutionWalks(
        tuple(Walk(tuple(_record(ln, line, "<v> ..."))) for ln, line in _content_lines(text))
    )


def serialize_walks(sol: SolutionWalks) -> str:
    return "".join(" ".join(str(v) for v in w.vertices) + "\n" for w in sol.walks)


# ---------------------------------------------------------------------------
# graph operations

def bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neighbours(mask: int, step) -> int:
    """Vertex mask one step from mask's vertices, step[v] being the mask one
    step from v (``Instance.out_mask`` walks arcs forwards)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= step[low.bit_length() - 1]
        mask ^= low
    return out


def reach(seed: int, step, within: int = -1) -> int:
    """Vertex mask reached from the seed mask by repeated ``neighbours`` steps
    inside within; the seed's own vertices are always included."""
    seen = frontier = seed
    while frontier:
        frontier = neighbours(frontier, step) & within & ~seen
        seen |= frontier
    return seen


def transitive_closure(inst: Instance) -> Instance:
    """Digraph with an arc (u,v) whenever a nonempty directed path u->v exists.

    Self-loops are excluded even for vertices on cycles; F and B carry over.
    Row u is the reach of u's out-neighbours without u, and the arc set and
    in rows are read off the rows.
    """
    out = inst.out_mask
    rows = [reach(out[s], out) & ~(1 << s) for s in range(inst.n)]
    return _from_out_rows(rows, inst.facility, inst.ploughs)


def topological_order(inst: Instance) -> list[int]:
    """Kahn's algorithm: the vertices no cycle reaches, each after all its
    predecessors; every vertex exactly when inst is acyclic."""
    indeg = [m.bit_count() for m in inst.in_mask]
    order = [v for v, d in enumerate(indeg) if not d]
    for v in order:  # grows as vertices lose their last predecessor
        rest = inst.out_mask[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            indeg[u] -= 1
            if not indeg[u]:
                order.append(u)
            rest ^= low
    return order


def condense(inst: Instance) -> Instance:
    """The condensation: each strongly connected component becomes one vertex.

    Components are numbered in the order of their smallest members.  A
    component is a facility if it holds one, and holds its members' ploughs,
    capped at n_c-1 for n_c components; the arcs between components carry
    over.  A host with no cycle, found by one ``topological_order`` pass,
    comes back as the same object.  Otherwise a vertex of that order, which
    no cycle reaches, is its own component, the others' components are
    found by reach among the vertices not yet placed, and a component's row
    holds the components of its members' out-neighbours outside it.
    """
    order = topological_order(inst)
    n, out = inst.n, inst.out_mask
    if len(order) == n:
        return inst
    unplaced = (1 << n) - 1  # vertices a cycle reaches, while their component is unknown
    for v in order:
        unplaced ^= 1 << v
    comp = [-1] * n
    members = []
    for v in range(n):
        if comp[v] >= 0:
            continue
        c, scc = len(members), 1 << v
        if unplaced & scc:
            # a path between two members stays in their component, so the
            # search skips the vertices of every component found before
            scc = reach(scc, inst.in_mask, reach(scc, out, unplaced))
            unplaced ^= scc
        members.append(scc)
        while scc:
            low = scc & -scc
            comp[low.bit_length() - 1] = c
            scc ^= low
    rows = []
    for c in members:
        row, rest = 0, neighbours(c, out) & ~c
        while rest:
            low = rest & -rest
            row |= 1 << comp[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    n_c = len(members)
    ploughs, rest = [0] * n_c, inst.base_mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        ploughs[comp[v]] += inst.ploughs[v]
        rest ^= low
    return _from_out_rows(
        rows,
        tuple([bool(c & inst.fac_mask) for c in members]),
        tuple([min(b, n_c - 1) for b in ploughs]),
    )


def sources(inst: Instance) -> frozenset[int]:
    """Vertices with in-degree zero."""
    return frozenset(v for v in range(inst.n) if not inst.in_mask[v])


def facilities_connected(inst: Instance, cleared) -> bool:
    """True iff all facilities lie in one component of the cleared subgraph.

    The cleared subgraph is the undirected graph on the endpoints of the
    cleared arcs.  A facility incident to no cleared arc fails the check
    unless there are fewer than two facilities (then the condition is
    vacuous and the answer is True).
    """
    adj = [0] * inst.n
    for a in cleared:
        if tuple(a) not in inst.arcs:
            raise ValueError(f"cleared set contains a non-arc {a}")
        u, v = a
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    fac = inst.fac_mask
    if fac.bit_count() <= 1:
        return True
    return not fac & ~reach(fac & -fac, adj)


def walk_is_valid(inst: Instance, w: Walk) -> bool:
    return all(a in inst.arcs for a in w.arcs())


def verify_st_solution(inst: Instance, sol: SolutionWalks) -> tuple[bool, str]:
    """Check a solution; returns (ok, reason).

    Requires exactly one walk per plough, the start multiset to match B,
    every walk to follow arcs of the instance, and the cleared arcs to
    connect all facilities.
    """
    kb = inst.total_ploughs()
    if len(sol.walks) != kb:
        return False, f"expected {kb} walks, got {len(sol.walks)}"
    starts = sol.start_counts()
    for v in range(inst.n):
        if starts.get(v, 0) != inst.ploughs[v]:
            return False, f"{starts.get(v, 0)} walks start at {v} but B({v})={inst.ploughs[v]}"
    for i, w in enumerate(sol.walks):
        if any(not (0 <= x < inst.n) for x in w.vertices):
            return False, f"walk {i} uses an unknown vertex"
        if not walk_is_valid(inst, w):
            return False, f"walk {i} uses a missing arc"
    if not facilities_connected(inst, sol.arc_union()):
        return False, "facilities are not connected by the cleared arcs"
    return True, "ok"
