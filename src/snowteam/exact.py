"""Brute-force ground-truth solvers for desk-scale instances.

Two engines for the clearing decision:

* A breadth-first search over (plough positions, unplaced ploughs, cleared
  arcs) states, for instances within small explicit limits.  It serves st,
  where every plough starts at its base, and stu, where each of k ploughs is
  first placed anywhere for free.  Witness walks are move-count minimal.
  Ploughs are interchangeable, so positions are kept sorted.

* A sequential engine for acyclic instances of any size within memo limits:
  walk unions are interleaving-independent, so ploughs can be processed one
  at a time, and extending a walk never breaks connectivity, so only
  sink-maximal paths need to be considered.  Vertex sets are int bitmasks,
  and a state is the sorted tuple of the cleared subgraph's component
  masks, which is already canonical.  This makes the Set-Cover gadgets
  tractable, which the plain BFS state space is not.

Both engines implement the same semantics and are cross-checked in tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .digraph import Instance, SolutionWalks, Walk, facilities_connected, reach, verify_st_solution
from .tpe import TpeInstance


class LimitsExceeded(ValueError):
    pass


@dataclass(frozen=True)
class ExactLimits:
    max_n: int = 8
    max_arcs: int = 14
    max_kb: int = 4
    max_bfs_states: int = 3_000_000
    max_dag_choices: int = 200_000
    max_dag_states: int = 2_000_000


def _is_dag(inst: Instance) -> bool:
    indeg = [len(inst.in_adj[v]) for v in range(inst.n)]
    queue = deque(v for v in range(inst.n) if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for u in inst.out_adj[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return seen == inst.n


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
    inst: Instance, positions: tuple[int, ...], unplaced: int, limits: ExactLimits
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
            for u in inst.out_adj[v]:
                succs.append(
                    ((v, u), (tuple(sorted(rest + (u,))), unplaced, cleared | arc_bit[(v, u)]))
                )
        for move, nxt in succs:
            if nxt in pred:
                continue
            pred[nxt] = (state, move)
            if len(pred) > limits.max_bfs_states:
                raise LimitsExceeded("BFS state budget exhausted")
            if accepting(nxt[2]):
                moves = []
                while pred[nxt] is not None:
                    nxt, move = pred[nxt]
                    moves.append(move)
                return moves[::-1]
            queue.append(nxt)
    return None


def _bfs_st(inst: Instance, limits: ExactLimits) -> tuple[bool, Optional[SolutionWalks]]:
    moves = _bfs(inst, _initial_positions(inst), 0, limits)
    if moves is None:
        return False, None
    return True, _replay_moves(inst, moves)


def _maximal_paths(inst: Instance, start: int, cap: int) -> list[tuple[int, ...]]:
    """All paths from start that end at an out-degree-0 vertex (DAG hosts only)."""
    out: list[tuple[int, ...]] = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        nexts = inst.out_adj[path[-1]]
        if not nexts:
            out.append(path)
            if len(out) > cap:
                raise LimitsExceeded("too many maximal paths per plough")
            continue
        for u in nexts:
            stack.append(path + (u,))
    return out


def _dag_st(inst: Instance, limits: ExactLimits) -> tuple[bool, Optional[SolutionWalks]]:
    fac = inst.facilities()
    if len(fac) <= 1:
        return True, _replay_moves(inst, [])  # zero-length walks
    fac_mask = sum(1 << f for f in fac)
    some_fac = 1 << min(fac)
    starts = list(_initial_positions(inst))
    total_choices = 0
    choices: list[list[tuple[tuple[int, ...], int]]] = []
    for s in starts:
        paths = _maximal_paths(inst, s, limits.max_dag_choices)
        total_choices += len(paths)
        if total_choices > limits.max_dag_choices:
            raise LimitsExceeded("too many maximal paths overall")
        choices.append([(p, sum(1 << v for v in p)) for p in paths])
    reached = [reach(1 << s, inst.out_mask) for s in starts]
    failed: set = set()

    def mergeable(comps: tuple[int, ...], i: int) -> bool:
        """Optimistic check: can remaining ploughs connect all facilities?"""
        grown, pending = some_fac, [*comps, *reached[i:]]
        while True:
            joined = [m for m in pending if m & grown]
            if not joined:
                return fac_mask & ~grown == 0
            pending = [m for m in pending if not m & grown]
            for m in joined:
                grown |= m

    def recurse(i: int, comps: tuple[int, ...]) -> Optional[list]:
        """comps: the cleared subgraph's component masks, sorted (canonical)."""
        if any(fac_mask & ~c == 0 for c in comps):
            return []
        if i == len(starts):
            return None
        key = (i, comps)
        if key in failed:
            return None
        if not mergeable(comps, i):
            failed.add(key)
            return None
        touched = sum(comps)  # components are disjoint
        ranked = sorted(
            choices[i],
            key=lambda c: -(c[1] & ~touched & fac_mask).bit_count() if len(c[0]) > 1 else 0,
        )
        for path, mask in ranked:
            if len(path) == 1:
                n_comps = comps
            else:
                kept = [c for c in comps if not c & mask]
                merged = mask | sum(c for c in comps if c & mask)
                n_comps = tuple(sorted(kept + [merged]))
            rest = recurse(i + 1, n_comps)
            if rest is not None:
                return [path] + rest
        failed.add(key)
        if len(failed) > limits.max_dag_states:
            raise LimitsExceeded("sequential-engine memo budget exhausted")
        return None

    chosen = recurse(0, ())
    if chosen is None:
        return False, None
    # ploughs that were not needed keep zero-length walks
    walks = [Walk(p) for p in chosen] + [Walk((s,)) for s in starts[len(chosen) :]]
    return True, SolutionWalks(tuple(walks))


def solve_st_exact(
    inst: Instance, limits: Optional[ExactLimits] = None
) -> tuple[bool, Optional[SolutionWalks]]:
    """Ground-truth clearing decision with a verifying witness on YES."""
    limits = limits or ExactLimits()
    small = (
        inst.n <= limits.max_n
        and len(inst.arcs) <= limits.max_arcs
        and inst.total_ploughs() <= limits.max_kb
    )
    if small:
        ans, witness = _bfs_st(inst, limits)
    elif _is_dag(inst):
        ans, witness = _dag_st(inst, limits)
    else:
        raise LimitsExceeded(
            f"instance (n={inst.n}, m={len(inst.arcs)}, k_B={inst.total_ploughs()}) "
            "exceeds the exact-search limits and is not acyclic"
        )
    if ans:
        ok, reason = verify_st_solution(inst, witness)
        assert ok, f"exact witness failed verification: {reason}"
    return ans, witness


def solve_tpe_exact(inst: TpeInstance) -> Optional[dict[int, int]]:
    """Brute force over injective maps; returns an embedding or None."""
    host, tree = inst.host, inst.tree
    if host.n > 8 or tree.order > 5:
        raise LimitsExceeded("exact embedding search limits: n <= 8, order <= 5")
    if tree.order > host.n:
        return None
    verts = range(host.n)
    for image in itertools.permutations(verts, tree.order):
        if any(tree.demand[v] > host.ploughs[image[v]] for v in range(tree.order)):
            continue
        if not inst.terminals <= set(image):
            continue
        if all((image[u], image[v]) in host.arcs for u, v in tree.arcs):
            return {v: image[v] for v in range(tree.order)}
    return None


def solve_variant_exact(inst: Instance, variant: str, k: Optional[int] = None,
                        limits: Optional[ExactLimits] = None):
    """Exact optimum for 'min-st' / 'max-st', or the 'stu' decision for k ploughs."""
    limits = limits or ExactLimits()
    if variant == "min-st":
        ranges = [range(b + 1) for b in inst.ploughs]
        best: Optional[int] = None
        for combo in itertools.product(*ranges):
            total = sum(combo)
            if best is not None and total >= best:
                continue
            sub = replace(inst, ploughs=tuple(combo))
            if solve_st_exact(sub, limits)[0]:
                best = total
        return best
    if variant == "max-st":
        fac = sorted(inst.facilities())
        for size in range(len(fac), 1, -1):
            for kept in itertools.combinations(fac, size):
                trimmed = replace(
                    inst, facility=tuple(v in set(kept) for v in range(inst.n))
                )
                if solve_st_exact(trimmed, limits)[0]:
                    return size
        return min(1, len(fac))
    if variant == "stu":
        if k is None or k < 0:
            raise ValueError("stu needs a plough count k >= 0")
        if inst.n > limits.max_n or len(inst.arcs) > limits.max_arcs or k > limits.max_kb:
            raise LimitsExceeded("stu exact limits exceeded")
        return _bfs(inst, (), k, limits) is not None
    raise ValueError(f"unknown variant {variant!r}")
