"""Randomized fixed-parameter pipelines for the clearing problems.

The base decision routine reduces a restricted instance (ploughs only at
facilities) to embedding questions on its transitive closure: the instance
is solvable iff some directed tree on at most 2|F|-1 vertices, weighted by
plough demand, embeds into the closure covering all facilities within the
plough capacities.  The general decision enumerates which plough bases to
promote to facilities; the min/max/unspecified variants reuse the same
machinery.

Every pipeline searches through one loop, ``_search``: it filters each
candidate tree, builds the tree's circuit and runs one detection on it,
stopping at the first YES.  It is the only place that derives detection
seeds and counts candidates and detections.

All detections are one-sided, so YES answers are certain.  NO answers carry
a computed failure bound: each missed embedding survives a single detection
with probability at most (1-p)^trials under the assumed per-trial success
rate p >= 1/5.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from . import trees
from .digraph import (
    Instance,
    SolutionWalks,
    Walk,
    transitive_closure,
    verify_st_solution,
)
from .exact import ExactLimits, solve_st_exact, solve_variant_exact
from .tpe import build_circuit, detect_zt_multilinear, make_tpe_instance
from .trees import TreeCandidate, candidate_stream

#: assumed lower bound on the per-trial detection success probability
ASSUMED_TRIAL_P = 0.2

_SEED_STRIDE = 104_729  # distinct detection seeds within one pipeline call


@dataclass(frozen=True)
class SolveParams:
    seed: int = 1
    trials: int = 32
    exact_threshold: int = 0  # route to the exact engine when n <= threshold
    jobs: int = 1
    exact_limits: ExactLimits = field(default_factory=ExactLimits)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass
class SolveReport:
    """Outcome plus accounting.

    failure_bound bounds the probability that the reported answer is wrong:
    zero for certain answers (YES decisions, exact-path results), a single
    missed-detection bound for NO decisions, and a union bound over the
    answer-relevant detections for the optimization variants.
    """

    answer: bool
    optimum: Optional[int] = None
    candidates_tested: int = 0
    detections_run: int = 0
    elapsed: float = 0.0
    failure_bound: float = 0.0
    witness: Optional[SolutionWalks] = None


def _miss(params: SolveParams) -> float:
    return (1.0 - ASSUMED_TRIAL_P) ** params.trials


def _facilities_in_one_weak_component(inst: Instance) -> bool:
    fac = inst.facilities()
    if len(fac) <= 1:
        return True
    parent = list(range(inst.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in inst.arcs:
        parent[find(u)] = find(v)
    return len({find(f) for f in fac}) == 1


def _kuhn_saturates(left_count: int, adj: list[list[int]]) -> bool:
    """Bipartite matching saturating every left vertex (Kuhn's augmenting paths)."""
    match_right: dict[int, int] = {}

    def try_assign(v, seen):
        for w in adj[v]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match_right or try_assign(match_right[w], seen):
                match_right[w] = v
                return True
        return False

    return all(try_assign(v, set()) for v in range(left_count))


def _candidate_feasible(host: Instance, cand: TreeCandidate, terminals: frozenset[int]) -> bool:
    """Cheap necessary conditions for an embedding; never prunes a true YES.

    Per-vertex capacity/degree compatibility is tightened by arc-consistency
    (a placement needs compatible placements across every tree arc), then a
    matching must saturate the tree side and another one the terminal set.
    """
    eta = cand.order
    if eta > host.n or len(terminals) > eta:
        return False
    tout = [0] * eta
    tin = [0] * eta
    for u, v in cand.arcs:
        tout[u] += 1
        tin[v] += 1
    hout = [len(host.out_adj[w]) for w in range(host.n)]
    hin = [len(host.in_adj[w]) for w in range(host.n)]
    compat = [
        {
            w
            for w in range(host.n)
            if cand.demand[v] <= host.ploughs[w] and tout[v] <= hout[w] and tin[v] <= hin[w]
        }
        for v in range(eta)
    ]
    changed = True
    while changed:
        changed = False
        for a, b in cand.arcs:
            keep_a = {w for w in compat[a] if any(x in compat[b] for x in host.out_adj[w])}
            if len(keep_a) != len(compat[a]):
                compat[a] = keep_a
                changed = True
            keep_b = {w for w in compat[b] if any(x in compat[a] for x in host.in_adj[w])}
            if len(keep_b) != len(compat[b]):
                compat[b] = keep_b
                changed = True
        if any(not c for c in compat):
            return False
    if not _kuhn_saturates(eta, [sorted(c) for c in compat]):
        return False
    term_list = sorted(terminals)
    term_adj = [[v for v in range(eta) if w in compat[v]] for w in term_list]
    return _kuhn_saturates(len(term_list), term_adj)


def _exact_report(inst: Instance, params: SolveParams, t0: float) -> SolveReport:
    ans, witness = solve_st_exact(inst, params.exact_limits)
    return SolveReport(answer=ans, witness=witness, elapsed=time.perf_counter() - t0)


def _search(
    closure: Instance,
    terminals: frozenset[int],
    candidates: Iterable[TreeCandidate],
    params: SolveParams,
    report: SolveReport,
    seed_base: int,
) -> Optional[TreeCandidate]:
    """First candidate whose detection answers YES, or None.

    Counts every candidate drawn and every detection run into ``report``;
    the detection counted j-th so far uses seed ``seed_base + _SEED_STRIDE * j``.
    """
    for cand in candidates:
        report.candidates_tested += 1
        if not _candidate_feasible(closure, cand, terminals):
            continue
        circuit = build_circuit(make_tpe_instance(closure, cand, terminals=terminals))
        seed = seed_base + _SEED_STRIDE * report.detections_run
        report.detections_run += 1
        if detect_zt_multilinear(
            circuit, t=len(terminals), k=cand.order, trials=params.trials, seed=seed
        ):
            return cand
    return None


def _decide(
    host: Instance, budget: int, l_param: int, params: SolveParams, t0: float
) -> SolveReport:
    """Does a tree on at most 2*l_param-1 vertices with total demand at most
    budget embed into host's closure, covering every facility of host?"""
    fac = host.facilities()
    if len(fac) <= 1:
        return SolveReport(answer=True, elapsed=time.perf_counter() - t0)
    report = SolveReport(answer=False)
    if budget and _facilities_in_one_weak_component(host):
        eta_max = min(2 * l_param - 1, host.n)
        if eta_max > trees.MAX_ORDER:
            raise ValueError(
                f"parameter {l_param} needs candidate trees up to order {eta_max}; "
                "beyond the enumeration cap, use the exact path"
            )
        stream = candidate_stream(len(fac), eta_max, budget=budget)
        hit = _search(transitive_closure(host), fac, stream, params, report, params.seed)
        report.answer = hit is not None
        if not report.answer and report.detections_run:
            report.failure_bound = _miss(params)
    report.elapsed = time.perf_counter() - t0
    return report


def solve_all_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """Decision for restricted instances (every plough base is a facility)."""
    t0 = time.perf_counter()
    if not inst.bases() <= inst.facilities():
        raise ValueError("restricted instance required: plough bases must be facilities")
    if inst.n <= params.exact_threshold:
        return _exact_report(inst, params, t0)
    return _decide(inst, inst.total_ploughs(), len(inst.facilities()), params, t0)


def _promotions(inst: Instance):
    """Restricted sub-instances from promoting base subsets to facilities."""
    fac, bases = inst.facilities(), inst.bases()
    extra = sorted(bases - fac)
    for size in range(len(extra) + 1):
        for subset in itertools.combinations(extra, size):
            promoted = fac | set(subset)
            keep = set(subset) | (fac & bases)
            yield replace(
                inst,
                facility=tuple(v in promoted for v in range(inst.n)),
                ploughs=tuple(inst.ploughs[v] if v in keep else 0 for v in range(inst.n)),
            )


def _check_pipeline_scale(inst: Instance) -> None:
    l_param = len(inst.facilities() | inst.bases())
    if min(2 * l_param - 1, inst.n) > trees.MAX_ORDER:
        raise ValueError(
            f"combined facility/base parameter {l_param} exceeds the enumeration "
            "pipeline cap; use the exact path"
        )


def solve_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """General decision: enumerate base promotions, solve each restricted case.

    Sub-reports are read in promotion order up to the first YES, whichever
    ``jobs`` runs them, so every ``jobs`` value gives the same report.
    """
    t0 = time.perf_counter()
    if inst.n <= params.exact_threshold:
        return _exact_report(inst, params, t0)
    if len(inst.facilities()) <= 1:
        return SolveReport(answer=True, elapsed=time.perf_counter() - t0)
    _check_pipeline_scale(inst)
    subs = list(_promotions(inst))
    report = SolveReport(answer=False)
    sub_params = [
        replace(params, seed=params.seed + _SEED_STRIDE * 1000 * (i + 1), jobs=1)
        for i in range(len(subs))
    ]
    pool = ProcessPoolExecutor(max_workers=params.jobs) if params.jobs > 1 else None
    try:
        for sub in (map if pool is None else pool.map)(solve_all_st, subs, sub_params):
            report.candidates_tested += sub.candidates_tested
            report.detections_run += sub.detections_run
            if sub.answer:
                report.answer = True
                break
    finally:
        if pool is not None:
            # subs already running in a worker still finish; queued ones are dropped
            pool.shutdown(cancel_futures=True)
    if not report.answer and report.detections_run:
        report.failure_bound = _miss(params)
    report.elapsed = time.perf_counter() - t0
    return report


def solve_min_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """Minimum ploughs, among those placed, that suffice; infeasible -> answer False."""
    t0 = time.perf_counter()
    if inst.n <= params.exact_threshold:
        best = solve_variant_exact(inst, "min-st", limits=params.exact_limits)
        return SolveReport(
            answer=best is not None, optimum=best, elapsed=time.perf_counter() - t0
        )
    if len(inst.facilities()) <= 1:
        return SolveReport(answer=True, optimum=0, elapsed=time.perf_counter() - t0)
    _check_pipeline_scale(inst)
    report = SolveReport(answer=False)
    best: Optional[int] = None
    hits = 0
    for sub_i, sub_inst in enumerate(_promotions(inst)):
        fac = sub_inst.facilities()
        kb = sub_inst.total_ploughs()
        if kb == 0 or not _facilities_in_one_weak_component(sub_inst):
            continue
        eta_max = min(2 * len(fac) - 1, sub_inst.n)
        closure = transitive_closure(sub_inst)
        cands = sorted(
            candidate_stream(len(fac), eta_max, budget=kb),
            key=lambda c: (c.total_demand(), c.order, c.code_str()),
        )
        lighter = [c for c in cands if best is None or c.total_demand() < best]
        seed_base = params.seed + _SEED_STRIDE * 1000 * (sub_i + 1)
        hit = _search(closure, fac, lighter, params, report, seed_base)
        if hit is not None:
            best = hit.total_demand()
            hits += 1
    report.answer = best is not None
    report.optimum = best
    if report.detections_run:
        # a wrong optimum needs some lighter candidate's detection to have
        # missed; a wrong "infeasible" needs some embeddable candidate missed
        relevant = report.detections_run - hits if best is not None else 1
        report.failure_bound = min(1.0, relevant * _miss(params))
    report.elapsed = time.perf_counter() - t0
    return report


def solve_max_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """Largest facility subset that can be reconnected with the placed ploughs."""
    t0 = time.perf_counter()
    if inst.n <= params.exact_threshold:
        best = solve_variant_exact(inst, "max-st", limits=params.exact_limits)
        return SolveReport(answer=True, optimum=best, elapsed=time.perf_counter() - t0)
    fac = sorted(inst.facilities())
    report = SolveReport(answer=True)
    bound_acc = 0.0
    for size in range(len(fac), 1, -1):
        size_misses = 0.0
        for kept, subset in enumerate(itertools.combinations(fac, size)):
            trimmed = replace(
                inst, facility=tuple(v in set(subset) for v in range(inst.n))
            )
            sub = solve_st(
                trimmed, replace(params, seed=params.seed + _SEED_STRIDE * 31 * (kept + size))
            )
            report.candidates_tested += sub.candidates_tested
            report.detections_run += sub.detections_run
            if sub.answer:
                report.optimum = size
                break
            size_misses += sub.failure_bound
        if report.optimum is not None:
            break
        # a missed NO at the optimum's own size cannot change the optimum
        bound_acc += size_misses
    else:
        report.optimum = min(1, len(fac))
    report.failure_bound = min(1.0, bound_acc)
    report.elapsed = time.perf_counter() - t0
    return report


def solve_stu(inst: Instance, k: int, params: SolveParams = SolveParams()) -> SolveReport:
    """Decision with k freely placed ploughs; the instance's B is ignored."""
    t0 = time.perf_counter()
    if k < 0:
        raise ValueError("k must be nonnegative")
    if inst.n <= params.exact_threshold:
        ans = solve_variant_exact(inst, "stu", k=k, limits=params.exact_limits)
        return SolveReport(answer=ans, elapsed=time.perf_counter() - t0)
    # capacity n-1 everywhere is equivalent to unconstrained: demands never exceed it
    free_host = replace(inst, ploughs=tuple(inst.n - 1 for _ in range(inst.n)))
    return _decide(free_host, k, len(inst.facilities()) + k, params, t0)


# ---------------------------------------------------------------------------
# walk normalization

def _edge_multiplicities(walks: list[list[int]]):
    mult: dict[frozenset, int] = {}
    for w in walks:
        for a, b in zip(w, w[1:]):
            e = frozenset((a, b))
            mult[e] = mult.get(e, 0) + 1
    return mult


def _union_graph(walks: list[list[int]]):
    adj: dict[int, set[int]] = {}
    for w in walks:
        for a, b in zip(w, w[1:]):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def _cycle_edges(adj: dict[int, set[int]]) -> set[frozenset]:
    """Edges lying on some cycle = edges that are not bridges."""
    edges = {frozenset((a, b)) for a, nbrs in adj.items() for b in nbrs}
    out = set()
    for e in edges:
        a, b = tuple(e)
        # is b reachable from a without crossing e?
        stack, seen = [a], {a}
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if frozenset((v, u)) == e or u in seen:
                    continue
                seen.add(u)
                stack.append(u)
        if b in seen:
            out.add(e)
    return out


def normalize_to_tree_like(tc_inst: Instance, sol: SolutionWalks) -> SolutionWalks:
    """Rewrite a verifying solution on a transitively closed restricted instance
    into strongly arc-distinct simple paths whose union is a small tree.

    Two phases of local rewrites, each strictly shortening the total length:
    first drop or shortcut arcs whose underlying edge is multiply traversed or
    lies on a cycle (applied at the last offending position of a walk, which
    keeps the replacement arc well defined); then splice out non-facility
    vertices of degree at most two, except meeting points of two walk ends.
    Start vertices are never touched.
    """
    if not tc_inst.bases() <= tc_inst.facilities():
        raise ValueError("restricted instance required")
    if transitive_closure(tc_inst).arcs != tc_inst.arcs:
        raise ValueError("instance must be transitively closed")
    ok, reason = verify_st_solution(tc_inst, sol)
    if not ok:
        raise ValueError(f"input solution must verify: {reason}")

    fac = tc_inst.facilities()
    walks = [list(w.vertices) for w in sol.walks]

    # Phase 1: make walks strongly arc-distinct and the union acyclic.
    while True:
        mult = _edge_multiplicities(walks)
        cyc = _cycle_edges(_union_graph(walks))
        offending = {e for e, c in mult.items() if c >= 2} | cyc
        target = None
        for wi, w in enumerate(walks):
            hits = [t for t in range(len(w) - 1) if frozenset((w[t], w[t + 1])) in offending]
            if hits:
                target = (wi, max(hits))
                break
        if target is None:
            break
        wi, t = target
        w = walks[wi]
        if t == len(w) - 2:
            w.pop()
        else:
            assert w[t] != w[t + 2], "offending-position maximality violated"
            assert (w[t], w[t + 2]) in tc_inst.arcs, "closure must contain the shortcut"
            del w[t + 1]

    # Phase 2: splice out low-degree non-facility vertices.
    while True:
        adj = _union_graph(walks)
        acted = False
        for v, nbrs in sorted(adj.items()):
            if v in fac or len(nbrs) > 2:
                continue
            if len(nbrs) == 1:
                # non-facility degree-1 vertices are always a walk's end: starts
                # are facilities and interior vertices have two distinct edges
                end_wi = next(i for i, w in enumerate(walks) if len(w) >= 2 and w[-1] == v)
                walks[end_wi].pop()
                acted = True
                break
            through = next(
                (
                    (i, pos)
                    for i, w in enumerate(walks)
                    for pos in range(1, len(w) - 1)
                    if w[pos] == v
                ),
                None,
            )
            if through is None:
                continue  # two walk ends meet here; allowed to remain
            i, pos = through
            assert (walks[i][pos - 1], walks[i][pos + 1]) in tc_inst.arcs
            del walks[i][pos]
            acted = True
            break
        if not acted:
            break

    out = SolutionWalks(tuple(Walk(tuple(w)) for w in walks))
    ok, reason = verify_st_solution(tc_inst, out)
    assert ok, f"normalized solution must verify: {reason}"
    if len(fac) >= 2:
        touched = {v for w in walks if len(w) >= 2 for v in w}
        assert len(touched) <= 2 * len(fac) - 1, "union tree larger than the bound"
    return out


def is_tree_like(sol: SolutionWalks) -> bool:
    """Strongly arc-distinct simple paths whose union's underlying graph is acyclic."""
    walks = [list(w.vertices) for w in sol.walks]
    if any(len(set(w)) != len(w) for w in walks):
        return False
    if any(c >= 2 for c in _edge_multiplicities(walks).values()):
        return False
    return not _cycle_edges(_union_graph(walks))
