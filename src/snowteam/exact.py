"""Brute-force ground-truth solvers for desk-scale instances.

Two engines for the clearing decision.  Both keep the cleared subgraph as
the sorted tuple of its components' vertex bitmasks (canonical), and both
clear an arc or a path through ``_merge``: it joins the components the new
vertices meet and keeps the others as they were.  None of those held every
facility, or the search would have stopped there, so a move succeeds
exactly when the merged component holds every facility.

* A breadth-first search over (sorted plough positions, unplaced ploughs,
  components) states, for instances within small explicit limits.  It
  serves st, where every plough starts at its base, and stu, where each of
  k ploughs is first placed anywhere for free.  Witness walks are
  move-count minimal.  Ploughs are interchangeable, so positions are kept
  sorted.  Keying the states by cleared-arc sets instead finds the same
  witness.  Successors come in a fixed order, and a successor's state and
  its success depend only on the current state's components.  An arc-set
  state whose components match those of one queued before it is expanded
  later and finds no component state the earlier one has not found, so
  each component state is first reached from a first-seen one, by the same
  move.  Both searches therefore meet the component states in the same
  order, through the same moves, and return the same fewest-move sequence.

* A branching engine for acyclic instances of any size within memo limits,
  which makes the Set-Cover gadgets tractable.  On a DAG walks are paths,
  their union does not depend on their order, and extending a walk never
  breaks connectivity, so each plough stays put or takes a sink-maximal
  path.  A state is the bitmask of free ploughs and the components.
  Ploughs at one base are interchangeable, so only the lowest free one
  there takes a path.  With two or more facilities, each state branches on
  the paths one of which every solution below it must still choose; as the
  order of choices is free, no solution is lost:

  - While some facility lies on no chosen path, on the paths through the
    one with the fewest options (its paths from bases with a free plough),
    the least such facility on a tie: in a solution it has a cleared arc,
    on a path still to come.  No such path means NO.
  - Once all are covered but split, on the paths that meet the component C
    holding the least facility and leave it: without one, every later arc
    lies inside C or outside it, so C stays a component short of a facility.

  Paths that cover the most uncovered facilities are tried first.  What
  depends on the arcs alone is built once per host (``_path_index``): the
  acyclicity check, the successor lists and, on first lookup of a base,
  its maximal paths with their vertex masks and the paths through each
  vertex.  The optimum searches of ``solve_variant_exact`` change only
  ploughs or facilities, so they share one index.  A search carries the
  uncovered facilities down the recursion, and every facility's option
  count packed in one integer: a count changes only when a base's last
  free plough is spent, by one subtraction.  A carried count is exactly
  the number of options its facility has in that state, and ties fall to
  the least facility and then to the earlier path (base order, then path
  order from the base), so each state makes the choices the rules above
  name, in the order they name.

Both engines implement the same semantics and are cross-checked in tests.
Both take sorted plough positions: ``_search`` runs one on a fixed host for
any plough vector, so exact ``min-st`` builds no instance per sub-vector;
only a sub-vector's YES builds one, to verify its witness.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from typing import Optional

from .digraph import Instance, SolutionWalks, Walk, bits, topological_order, verify_st_solution
from .trees import TreeCandidate


class LimitsExceeded(ValueError):
    pass


# MAX_N, MAX_ARCS and MAX_KB pick the engine: the BFS answers an instance
# with at most MAX_N vertices, MAX_ARCS arcs and MAX_KB ploughs, so its
# witness is move-minimal, and the acyclic engine any other; a larger cyclic
# instance is refused.  Raising MAX_ARCS would hand small acyclic hosts to
# the BFS and change their witnesses.  The other budgets bound the work of
# either engine.
MAX_N = 8
MAX_ARCS = 14
MAX_KB = 4
MAX_BFS_STATES = 3_000_000
MAX_DAG_CHOICES = 200_000
MAX_DAG_STATES = 2_000_000


def _fits_bfs(inst: Instance, k: int) -> bool:
    """Whether the BFS engine answers inst with k ploughs."""
    return inst.n <= MAX_N and sum(map(int.bit_count, inst.out_mask)) <= MAX_ARCS and k <= MAX_KB


def _merge(comps: tuple[int, ...], mask: int) -> tuple[int, list[int]]:
    """The components once arcs joining the vertices of mask are cleared:
    (mask with every component of comps it meets, the others in order)."""
    merged, kept = mask, []
    for c in comps:
        if c & mask:
            merged |= c
        else:
            kept.append(c)
    return merged, kept


def _positions(ploughs: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted start vertices of a plough vector, one per plough."""
    return tuple(v for v, c in enumerate(ploughs) for _ in range(c))


def _replay_moves(positions: tuple[int, ...], moves: list[tuple[int, int]]) -> SolutionWalks:
    """Attribute a move sequence to concrete ploughs (first plough at the tail moves)."""
    walks = [[v] for v in positions]
    for u, v in moves:
        idx = next(i for i, w in enumerate(walks) if w[-1] == u)
        walks[idx].append(v)
    return SolutionWalks(tuple(Walk(tuple(w)) for w in walks))


def _bfs(
    inst: Instance, positions: tuple[int, ...], unplaced: int
) -> Optional[list[tuple[Optional[int], int]]]:
    """Fewest moves from (positions, unplaced, nothing cleared) to a state
    whose cleared subgraph has a component holding every facility, or None.
    A move (v, u) takes a plough along arc vu; (None, v) places one of the
    unplaced ploughs at v for free.  A state's cleared subgraph is its
    sorted component masks; a placement leaves them as they are."""
    fac_mask = inst.fac_mask
    if fac_mask.bit_count() <= 1:
        return []
    start = (positions, unplaced, ())
    pred: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        positions, unplaced, comps = state
        succs = []  # (move, state, the component it cleared into, or 0)
        if unplaced:
            succs += [
                ((None, v), (tuple(sorted(positions + (v,))), unplaced - 1, comps), 0)
                for v in range(inst.n)
            ]
        for i, v in enumerate(positions):
            if i > 0 and positions[i - 1] == v:
                continue  # ploughs at the same vertex are interchangeable
            rest = positions[:i] + positions[i + 1 :]
            for u in bits(inst.out_mask[v]):
                merged, kept = _merge(comps, 1 << v | 1 << u)
                insort(kept, merged)
                succs.append(((v, u), (tuple(sorted(rest + (u,))), unplaced, tuple(kept)), merged))
        for move, nxt, merged in succs:
            if nxt in pred:
                continue
            pred[nxt] = (state, move)
            if len(pred) > MAX_BFS_STATES:
                raise LimitsExceeded("BFS state budget exhausted")
            if not fac_mask & ~merged:
                moves = []
                while pred[nxt] is not None:
                    nxt, move = pred[nxt]
                    moves.append(move)
                return moves[::-1]
            queue.append(nxt)
    return None


def _maximal_paths(
    succ: list[list[int]], start: int, cap: int
) -> list[tuple[tuple[int, ...], int]]:
    """All paths from start along succ (DAG hosts only) that end at a vertex
    without successors, each with the mask of its vertices."""
    out: list[tuple[tuple[int, ...], int]] = []
    stack = [((start,), 1 << start)]
    while stack:
        path, mask = stack.pop()
        nexts = succ[path[-1]]
        if not nexts:
            out.append((path, mask))
            if len(out) > cap:
                raise LimitsExceeded("too many maximal paths per plough")
            continue
        for u in nexts:
            stack.append((path + (u,), mask | 1 << u))
    return out


class _PathIndex(dict):
    """An acyclic host's maximal paths per start vertex, built on first lookup.

    An entry is (the number of paths, those of length >= 1 with their vertex
    masks, each vertex -> those of them through it, and how many pass each
    vertex v, packed in the field at bit width*v).  Only the arcs enter, so
    one index serves every plough vector and facility set on the host.  A
    field holds any count up to MAX_DAG_CHOICES, past which a search is
    refused."""

    def __init__(self, succ: list[list[int]]):
        super().__init__()
        self.succ = succ
        self.width = MAX_DAG_CHOICES.bit_length() + 1

    def __missing__(self, v: int) -> tuple[int, list, dict[int, list], int]:
        paths = _maximal_paths(self.succ, v, MAX_DAG_CHOICES)
        own = [c for c in paths if len(c[0]) > 1]
        through: dict[int, list] = {}
        for c in own:
            for u in c[0]:
                through.setdefault(u, []).append(c)
        packed = sum(len(t) << self.width * u for u, t in through.items())
        self[v] = entry = (len(paths), own, through, packed)
        return entry


def _path_index(inst: Instance) -> Optional[_PathIndex]:
    """inst's path index, or None when inst has a cycle."""
    if len(topological_order(inst)) < inst.n:
        return None
    return _PathIndex([bits(m) for m in inst.out_mask])


def _dag_st(
    inst: Instance, starts: tuple[int, ...], paths: _PathIndex
) -> Optional[SolutionWalks]:
    """A witness for ploughs at the sorted positions starts on acyclic
    inst's arcs and facilities, or None; paths is inst's path index."""
    fac_mask = inst.fac_mask
    if fac_mask.bit_count() <= 1:
        return _replay_moves(starts, [])  # zero-length walks
    least_fac = fac_mask & -fac_mask
    # plough i is bit i of a free mask, a base's ploughs consecutive bits;
    # one group per base: (its ploughs, its paths, vertex -> its paths there)
    groups, total_choices, first = [], 0, 0
    # the options through each facility, its paths from bases with a free
    # plough, packed as in the index: spending the last free plough of base
    # ploughs m subtracts drops[m]
    width, drops = paths.width, {}
    field = (1 << width) - 1
    for b in sorted(set(starts)):
        n_paths, own, through, packed = paths[b]
        at_b = starts.count(b)
        total_choices += n_paths * at_b
        if total_choices > MAX_DAG_CHOICES:
            raise LimitsExceeded("too many maximal paths overall")
        ploughs = (1 << at_b) - 1 << first
        first += at_b
        groups.append((ploughs, own, through))
        drops[ploughs] = packed
    via: dict = {}  # facility -> {base ploughs: its paths through it}, on first use
    failed: set = set()

    def recurse(free: int, comps: tuple[int, ...], uncovered: int, count: int) -> Optional[list]:
        """comps: the cleared subgraph's component masks, sorted (canonical),
        none holding every facility; uncovered: the facilities outside them.
        The caller has checked that (free, comps) has not failed before."""
        if uncovered:  # the most constrained facility; no options at all fails
            best = min(bits(uncovered), key=lambda f: count >> width * f & field)
            if best not in via:
                via[best] = {m: at[best] for m, _, at in groups if best in at}
            options = [(m, c) for m, t in via[best].items() if free & m for c in t]
            options.sort(key=lambda o: -(o[1][1] & uncovered).bit_count())  # most newly covered first
        else:  # every facility covered: leave the component of the least one
            home = next(c for c in comps if c & least_fac)
            options = [(m, c) for m, ps, _ in groups if free & m
                       for c in ps if c[1] & home and c[1] & ~home]
        for m, (path, mask) in options:
            at_base = free & m
            plough = at_base & -at_base  # the lowest free plough at the base
            merged, kept = _merge(comps, mask)
            if not fac_mask & ~merged:
                return [(plough.bit_length() - 1, path)]
            insort(kept, merged)
            key = (free ^ plough, tuple(kept))
            if key in failed:
                continue
            spent = drops[m] if plough == at_base else 0  # the base's last free plough
            rest = recurse(*key, uncovered & ~mask, count - spent)
            if rest is not None:
                return [(plough.bit_length() - 1, path)] + rest
        failed.add((free, comps))
        if len(failed) > MAX_DAG_STATES:
            raise LimitsExceeded("acyclic-engine memo budget exhausted")
        return None

    chosen = recurse((1 << len(starts)) - 1, (), fac_mask, sum(drops.values()))
    if chosen is None:
        return None
    walks = [(s,) for s in starts]  # ploughs that were not needed keep zero-length walks
    for i, path in chosen:
        walks[i] = path
    return SolutionWalks(tuple(Walk(w) for w in walks))


def _search(
    inst: Instance, ploughs: tuple[int, ...], paths: Optional[_PathIndex]
) -> tuple[bool, Optional[SolutionWalks]]:
    """The clearing decision on inst's arcs and facilities with the plough
    vector ploughs, and a verified witness on YES.

    paths: inst's ``_path_index`` when the caller holds one, else None."""
    starts = _positions(ploughs)
    if _fits_bfs(inst, len(starts)):
        moves = _bfs(inst, starts, 0)
        witness = None if moves is None else _replay_moves(starts, moves)
    else:
        if paths is None:
            paths = _path_index(inst)
        if paths is None:
            raise LimitsExceeded(
                f"instance (n={inst.n}, m={sum(map(int.bit_count, inst.out_mask))}, "
                f"k_B={len(starts)}) exceeds the exact-search limits and is not acyclic"
            )
        witness = _dag_st(inst, starts, paths)
    if witness is not None:
        # the witness's own instance: only a sub-vector's YES builds one
        owner = inst if ploughs == inst.ploughs else inst._reweighted(inst.facility, ploughs)
        ok, reason = verify_st_solution(owner, witness)
        assert ok, f"exact witness failed verification: {reason}"
    return witness is not None, witness


def solve_st_exact(inst: Instance) -> tuple[bool, Optional[SolutionWalks]]:
    """Ground-truth clearing decision with a verifying witness on YES."""
    return _search(inst, inst.ploughs, None)


def solve_tpe_exact(
    host: Instance, tree: TreeCandidate, terminals: frozenset[int]
) -> Optional[dict[int, int]]:
    """Brute force over injective maps covering the terminals; an embedding or None."""
    if not all(0 <= t < host.n for t in terminals):
        raise ValueError("terminals outside host vertex range")
    if host.n > 8 or tree.order > 5:
        raise LimitsExceeded("exact embedding search limits: n <= 8, order <= 5")
    for image in itertools.permutations(range(host.n), tree.order):  # none if order > n
        if any(tree.demand[v] > host.ploughs[image[v]] for v in range(tree.order)):
            continue
        if not terminals <= set(image):
            continue
        if all(host.out_mask[image[u]] >> image[v] & 1 for u, v in tree.arcs):
            return {v: image[v] for v in range(tree.order)}
    return None


def _sub_vectors(caps: tuple[int, ...], total: int):
    """The vectors with entries 0..caps[i] that sum to total, in lexicographic
    order; none if total > sum(caps).

    Iterative: the first vector fills the last entries up to their caps; each
    next one raises the last entry that is below its cap and has something
    after it to take from, and refills the entries after it the same way."""
    if total > sum(caps):
        return
    vec = [0] * len(caps)

    def fill(start: int, rest: int) -> None:
        for j in reversed(range(start, len(caps))):
            vec[j] = min(caps[j], rest)
            rest -= vec[j]

    fill(0, total)
    while True:
        yield tuple(vec)
        after = 0  # the sum of the entries after i
        for i in reversed(range(len(caps))):
            if after and vec[i] < caps[i]:
                break
            after += vec[i]
        else:
            return
        vec[i] += 1
        fill(i + 1, after - 1)


def solve_variant_exact(inst: Instance, variant: str, k: Optional[int] = None):
    """Exact optimum for 'min-st' / 'max-st', or the 'stu' decision for k ploughs.

    The searches of 'min-st' and 'max-st' share one path index: only the
    ploughs or the facilities change between them."""
    paths = _path_index(inst) if variant in ("min-st", "max-st") else None
    if variant == "min-st":
        # extra ploughs never hurt (a plough may keep a zero-length walk), so
        # YES is upward closed: a NO on the full vector is final, and the
        # first YES among sub-vectors of increasing total is the optimum
        try:
            if not _search(inst, inst.ploughs, paths)[0]:
                return None
        except LimitsExceeded:
            pass  # its sub-vectors may still be within the limits
        for total in range(inst.total_ploughs() + 1):
            for ploughs in _sub_vectors(inst.ploughs, total):
                if _search(inst, ploughs, paths)[0]:
                    return total
        return None
    if variant == "max-st":
        fac = bits(inst.fac_mask)
        for size in range(len(fac), 1, -1):
            for kept in map(set, itertools.combinations(fac, size)):
                trimmed = inst._reweighted(tuple(v in kept for v in range(inst.n)), inst.ploughs)
                if _search(trimmed, inst.ploughs, paths)[0]:
                    return size
        return min(1, len(fac))
    if variant == "stu":
        if k is None or k < 0:
            raise ValueError("stu needs a plough count k >= 0")
        if not _fits_bfs(inst, k):
            raise LimitsExceeded("stu exact limits exceeded")
        return _bfs(inst, (), k) is not None
    raise ValueError(f"unknown variant {variant!r}")
