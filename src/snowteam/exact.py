"""Brute-force ground-truth solvers for desk-scale instances.

Two engines for the clearing decision:

* A breadth-first search over (plough positions, unplaced ploughs, cleared
  arcs) states, for instances within small explicit limits.  It serves st,
  where every plough starts at its base, and stu, where each of k ploughs is
  first placed anywhere for free.  Witness walks are move-count minimal.
  Ploughs are interchangeable, so positions are kept sorted.

* A branching engine for acyclic instances of any size within memo limits,
  which makes the Set-Cover gadgets tractable.  On a DAG walks are paths,
  their union does not depend on their order, and extending a walk never
  breaks connectivity, so each plough stays put or takes a sink-maximal
  path.  A state is the bitmask of free ploughs and the sorted tuple of the
  cleared subgraph's component bitmasks (canonical).  Ploughs at one base
  are interchangeable, so only the lowest free one there takes a path.
  With two or more facilities, each state branches on the paths one of
  which every solution below it must still choose; as the order of choices
  is free, no solution is lost:

  - While some facility lies on no chosen path, on the paths through the
    one with the fewest: in a solution it has a cleared arc, on a path
    still to come.  No such path means NO.
  - Once all are covered but split, on the paths that meet the component C
    holding the least facility and leave it: without one, every later arc
    lies inside C or outside it, so C stays a component short of a facility.

Both engines implement the same semantics and are cross-checked in tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace
from typing import Optional

from .digraph import Instance, SolutionWalks, Walk, bits, facilities_connected, verify_st_solution
from .trees import TreeCandidate


class LimitsExceeded(ValueError):
    pass


# the BFS engine takes instances with at most MAX_N vertices, MAX_ARCS arcs
# and MAX_KB ploughs; the other budgets bound the work of either engine
MAX_N = 8
MAX_ARCS = 14
MAX_KB = 4
MAX_BFS_STATES = 3_000_000
MAX_DAG_CHOICES = 200_000
MAX_DAG_STATES = 2_000_000


def _is_dag(inst: Instance) -> bool:
    indeg = [m.bit_count() for m in inst.in_mask]  # Kahn's algorithm
    order = [v for v in range(inst.n) if indeg[v] == 0]
    for v in order:  # grows as vertices lose their last predecessor; a DAG gets all n
        for u in bits(inst.out_mask[v]):
            indeg[u] -= 1
            if indeg[u] == 0:
                order.append(u)
    return len(order) == inst.n


def _initial_positions(inst: Instance) -> tuple[int, ...]:
    return tuple(sorted(v for v in range(inst.n) for _ in range(inst.ploughs[v])))


def _replay_moves(inst: Instance, moves: list[tuple[int, int]]) -> SolutionWalks:
    """Attribute a move sequence to concrete ploughs (first plough at the tail moves)."""
    walks = [[v] for v in _initial_positions(inst)]
    for u, v in moves:
        idx = next(i for i, w in enumerate(walks) if w[-1] == u)
        walks[idx].append(v)
    return SolutionWalks(tuple(Walk(tuple(w)) for w in walks))


def _bfs(
    inst: Instance, positions: tuple[int, ...], unplaced: int
) -> Optional[list[tuple[Optional[int], int]]]:
    """Fewest moves from (positions, unplaced, nothing cleared) to a state whose
    cleared arcs connect the facilities, or None.  A move (v, u) takes a plough
    along arc vu; (None, v) places one of the unplaced ploughs at v for free."""
    arc_list = sorted(inst.arcs)
    arc_bit = {a: 1 << i for i, a in enumerate(arc_list)}
    accept_cache: dict[int, bool] = {}

    def accepting(mask: int) -> bool:
        if mask not in accept_cache:
            cleared = [a for i, a in enumerate(arc_list) if (mask >> i) & 1]
            accept_cache[mask] = facilities_connected(inst, cleared)
        return accept_cache[mask]

    start = (positions, unplaced, 0)
    if accepting(0):
        return []
    pred: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        positions, unplaced, cleared = state
        succs = []
        if unplaced:
            succs += [
                ((None, v), (tuple(sorted(positions + (v,))), unplaced - 1, cleared))
                for v in range(inst.n)
            ]
        for i, v in enumerate(positions):
            if i > 0 and positions[i - 1] == v:
                continue  # ploughs at the same vertex are interchangeable
            rest = positions[:i] + positions[i + 1 :]
            for u in bits(inst.out_mask[v]):
                succs.append(
                    ((v, u), (tuple(sorted(rest + (u,))), unplaced, cleared | arc_bit[(v, u)]))
                )
        for move, nxt in succs:
            if nxt in pred:
                continue
            pred[nxt] = (state, move)
            if len(pred) > MAX_BFS_STATES:
                raise LimitsExceeded("BFS state budget exhausted")
            if accepting(nxt[2]):
                moves = []
                while pred[nxt] is not None:
                    nxt, move = pred[nxt]
                    moves.append(move)
                return moves[::-1]
            queue.append(nxt)
    return None


def _bfs_st(inst: Instance) -> tuple[bool, Optional[SolutionWalks]]:
    moves = _bfs(inst, _initial_positions(inst), 0)
    if moves is None:
        return False, None
    return True, _replay_moves(inst, moves)


def _maximal_paths(succ: list[list[int]], start: int, cap: int) -> list[tuple[int, ...]]:
    """All paths from start along succ (DAG hosts only) that end at a vertex without successors."""
    out: list[tuple[int, ...]] = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        nexts = succ[path[-1]]
        if not nexts:
            out.append(path)
            if len(out) > cap:
                raise LimitsExceeded("too many maximal paths per plough")
            continue
        for u in nexts:
            stack.append(path + (u,))
    return out


def _dag_st(inst: Instance) -> tuple[bool, Optional[SolutionWalks]]:
    fac = inst.facilities()
    if len(fac) <= 1:
        return True, _replay_moves(inst, [])  # zero-length walks
    fac_mask, least_fac = sum(1 << f for f in fac), 1 << min(fac)
    starts = _initial_positions(inst)
    succ = [bits(m) for m in inst.out_mask]
    # plough i is bit i of a free mask; one group per base: (its ploughs, its paths)
    groups, total_choices = [], 0
    via: dict = {f: {} for f in fac}  # facility -> {base ploughs: its paths through it}
    for b in sorted(set(starts)):
        paths = _maximal_paths(succ, b, MAX_DAG_CHOICES)
        total_choices += len(paths) * inst.ploughs[b]
        if total_choices > MAX_DAG_CHOICES:
            raise LimitsExceeded("too many maximal paths overall")
        ploughs = sum(1 << i for i, s in enumerate(starts) if s == b)
        groups.append((ploughs, [(p, sum(1 << v for v in p)) for p in paths if len(p) > 1]))
        for c in groups[-1][1]:
            for f in bits(c[1] & fac_mask):
                via[f].setdefault(ploughs, []).append(c)
    failed: set = set()

    def recurse(free: int, comps: tuple[int, ...]) -> Optional[list]:
        """comps: the cleared subgraph's component masks, sorted (canonical)."""
        if any(fac_mask & ~c == 0 for c in comps):
            return []
        key = (free, comps)
        if key in failed:
            return None
        uncovered = fac_mask & ~sum(comps)  # components are disjoint
        if uncovered:  # the most constrained facility; no options at all fails
            best = min(bits(uncovered),
                       key=lambda f: sum(len(t) for m, t in via[f].items() if free & m))
            options = [(m, c) for m, t in via[best].items() if free & m for c in t]
        else:  # every facility covered: leave the component of the least one
            home = next(c for c in comps if c & least_fac)
            options = [(m, c) for m, ps in groups if free & m
                       for c in ps if c[1] & home and c[1] & ~home]
        options.sort(key=lambda o: -(o[1][1] & uncovered).bit_count())  # most newly covered first
        for m, (path, mask) in options:
            plough = free & m & -(free & m)  # the lowest free plough at the base
            kept = [c for c in comps if not c & mask]
            merged = mask | sum(c for c in comps if c & mask)
            rest = recurse(free ^ plough, tuple(sorted(kept + [merged])))
            if rest is not None:
                return [(plough.bit_length() - 1, path)] + rest
        failed.add(key)
        if len(failed) > MAX_DAG_STATES:
            raise LimitsExceeded("acyclic-engine memo budget exhausted")
        return None

    chosen = recurse((1 << len(starts)) - 1, ())
    if chosen is None:
        return False, None
    walks = [(s,) for s in starts]  # ploughs that were not needed keep zero-length walks
    for i, path in chosen:
        walks[i] = path
    return True, SolutionWalks(tuple(Walk(w) for w in walks))


def solve_st_exact(inst: Instance) -> tuple[bool, Optional[SolutionWalks]]:
    """Ground-truth clearing decision with a verifying witness on YES."""
    if inst.n <= MAX_N and len(inst.arcs) <= MAX_ARCS and inst.total_ploughs() <= MAX_KB:
        ans, witness = _bfs_st(inst)
    elif _is_dag(inst):
        ans, witness = _dag_st(inst)
    else:
        raise LimitsExceeded(
            f"instance (n={inst.n}, m={len(inst.arcs)}, k_B={inst.total_ploughs()}) "
            "exceeds the exact-search limits and is not acyclic"
        )
    if ans:
        ok, reason = verify_st_solution(inst, witness)
        assert ok, f"exact witness failed verification: {reason}"
    return ans, witness


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
        if all((image[u], image[v]) in host.arcs for u, v in tree.arcs):
            return {v: image[v] for v in range(tree.order)}
    return None


def _sub_vectors(caps: tuple[int, ...], total: int):
    """The vectors with entries 0..caps[i] that sum to total, if total <= sum(caps)."""
    if total == 0:
        yield (0,) * len(caps)
        return
    v = next(i for i, c in enumerate(caps) if c)  # caps[:v] are all 0
    for c in range(max(0, total - sum(caps[v + 1 :])), min(caps[v], total) + 1):
        for tail in _sub_vectors(caps[v + 1 :], total - c):
            yield caps[:v] + (c,) + tail


def solve_variant_exact(inst: Instance, variant: str, k: Optional[int] = None):
    """Exact optimum for 'min-st' / 'max-st', or the 'stu' decision for k ploughs."""
    if variant == "min-st":
        # extra ploughs never hurt (a plough may keep a zero-length walk), so
        # YES is upward closed: a NO on the full vector is final, and the
        # first YES among sub-vectors of increasing total is the optimum
        try:
            if not solve_st_exact(inst)[0]:
                return None
        except LimitsExceeded:
            pass  # its sub-vectors may still be within the limits
        for total in range(inst.total_ploughs() + 1):
            for ploughs in _sub_vectors(inst.ploughs, total):
                if solve_st_exact(replace(inst, ploughs=ploughs))[0]:
                    return total
        return None
    if variant == "max-st":
        fac = sorted(inst.facilities())
        for size in range(len(fac), 1, -1):
            for kept in map(set, itertools.combinations(fac, size)):
                trimmed = replace(inst, facility=tuple(v in kept for v in range(inst.n)))
                if solve_st_exact(trimmed)[0]:
                    return size
        return min(1, len(fac))
    if variant == "stu":
        if k is None or k < 0:
            raise ValueError("stu needs a plough count k >= 0")
        if inst.n > MAX_N or len(inst.arcs) > MAX_ARCS or k > MAX_KB:
            raise LimitsExceeded("stu exact limits exceeded")
        return _bfs(inst, (), k) is not None
    raise ValueError(f"unknown variant {variant!r}")
