"""Randomized fixed-parameter pipelines for the clearing problems.

The base decision routine reduces a restricted instance (ploughs only at
facilities) to embedding questions on its transitive closure: the instance
is solvable iff some directed tree on at most 2|F|-1 vertices, weighted by
plough demand, embeds into the closure covering all facilities within the
plough capacities.  ``normalize_to_tree_like`` is the constructive proof
of that 2|F|-1 bound.  The general decision enumerates which plough bases
to promote to facilities; the other variants reuse the same machinery.

Normal form.  A restricted decision enumerates and places only the trees
that walk normalization can produce.  At the fixpoint of
``normalize_to_tree_like`` a tree vertex that is no facility starts no
walk, so out <= in and its demand is 0, and it has in-degree at least 2.
So every tree vertex of in-degree at most 1 or positive demand is a
facility: there are at most |F| of them, and an embedding puts those of
in-degree at most 1 on facilities (those of positive demand pay it, so
they sit on bases, inside F already).  ``_decide`` passes that count to
``candidate_stream`` as its sources bound, and the facility set to
``tpe.placements`` as its pin, in the filter and the circuit alike.  Such a
tree has at most |F| + b - 1 vertices for a plough budget b, so
``_check_scale`` caps a normal-form decision there.  Let a0, a1 and a2
count its vertices of in-degree 0, 1 and at least 2, on eta >= 2 vertices.
An in-degree-0 vertex has demand at least 1, so a0 <= b; the in-degrees sum
to eta - 1, so a1 + 2*a2 <= a0 + a1 + a2 - 1 and a2 <= a0 - 1; the
sources bound gives a0 + a1 <= |F|.  So eta <= |F| + b - 1.  A YES
keeps its normalized witness's union tree among the candidates and that
tree's own embedding in the closure among the placements.  ``_decide``
applies the rule exactly when every plough base of its host is a
facility: ``st``, every promotion, ``min-st`` and ``max-st``.
Normalization deletes vertices, never walks, so it keeps the walk count,
and a tree's demand at a vertex is at most the number of walks starting
there: a ``min-st`` budget that admits a solution admits its normal-form
tree, and the optimum is unchanged.  ``stu`` is excluded: with a plough
allowed anywhere, a vertex that is no facility may start a walk and have
out > in, and the bound fails.  Its host, with ploughs on every vertex,
meets the condition only when every vertex is a facility, where the rule
removes nothing.

The onto-F pin.  ``_decide`` also confines every vertex of a candidate on
exactly |F| vertices to F, ``tpe.placements``' onto, on every path: ``st``
promotions, ``min-st``, ``max-st`` subsets and ``stu``.  A detection sees
only injective maps that hit all |F| terminals (the terms of the others
vanish, ``tpe``), and with eta = |F| such a map sends the |F| tree vertices
to |F| distinct facilities: it is a bijection onto F.  So the pin keeps the
placements of every embedding a detection could find.  Placements only
shrink, so no false positive appears, and the 2*eta/2^64 miss bound holds
as before.  The rule rests on t = |F| and k = eta, so ``build_circuit`` and
``_candidate_feasible`` apply it only when asked.

Before its condensation, closure or any candidate, every pipeline decision
runs one certain-NO precheck, ``_base_reach_connects_facilities``.  Let R be the
plough bases and every vertex reachable from one.  Each plough's walk starts
at its base, so every cleared arc lies on a walk from a base and both its
ends are in R: the cleared subgraph is a subgraph of D[R].  With two or
more facilities, each must touch a cleared arc and all must share one
component of the cleared subgraph, hence every facility is in R and all
facilities share one weak component of D[R].  When this fails the answer is NO with certainty:
no candidate is counted, no detection runs and the bound is 0.  A base
promotion keeps a subset of the original bases and adds facilities, so its
R shrinks and its facility set grows; one failure on the original bases
decides every promotion.  The precheck gives the same verdict on the
transitive closure of D, so ``_promotions`` runs it on each promotion of the
closed host and yields only those that pass.  Reachability is the same in D
and in its closure, so R is the same.  R is closed under reachability, so a
closure arc u -> v with u, v in R stands for a path of D that stays inside
R, and the closure restricted to R has the weak components of D[R].

Past the precheck, each entry point solves the condensation,
``digraph.condense``, and searches its transitive closure.  In the
condensation every strongly connected component is contracted to one
vertex, a facility if it holds one, with its members' ploughs capped at
n_c-1 for n_c components.  With two or more facility components the instance
is YES exactly when its condensation is.  To project a solution, map each
walk's vertices to their components and drop repeats.  A walk that leaves a
component never returns to it, so this is a walk of the condensation from
its base's component, and it keeps every cleared arc between components.
Arcs inside a component collapse onto its vertex, so facilities joined by
cleared arcs stay joined, and each facility component, joined to another,
touches a cleared arc.  To lift a solution, give each condensed walk at a
component its own plough there (there are at most as many walks as
ploughs; the rest stay put).  The plough tours its component, every member
reachable from every other, then crosses the next arc between components
from that arc's tail, tours the component it enters, and so on.  The tours
join all members of each visited component and the crossed arcs join the
components; every facility component is visited, so all facilities are
joined.  The cap changes no answer: a candidate tree has at most n_c
vertices, so a tree vertex's demand is at most its out-degree, at most
n_c-1, and every capacity test comes out the same with or without the cap.
When every facility lies in one component C and there are at least two,
the condensation has one facility and is trivially YES, while the instance
is YES exactly when some base reaches C: a plough walks there and tours C,
and without one no facility touches a cleared arc.  The precheck, run on the
instance before condensing, has then found such a base, so exactly one
plough is needed (a facility must touch a cleared arc).  ``_settled``
returns that count, and ``st``, ``min-st`` and ``stu`` read their answers
off it.  Otherwise it returns the search host, the closed condensation,
built once per ``_settled`` host.  The closure depends on the arcs alone
and carries F and B over, so the closure of a reweighting is the same
reweighting of the closure: promotions, ``min-st``'s budgets and ``stu``
reweight rows that are already closed, and the filter and the circuit see
the hosts they would see if each were closed on its own.  Closing changes
neither n nor F, B or the ploughs, so neither does it change
``_check_scale``'s cap.  ``max-st`` condenses and closes each facility
subset on its own, so its optimum still counts original facilities.

Every restricted decision runs through one routine, ``_decide``, on a
closed host that has passed the precheck: the candidates within the plough
budget, the filter, and the survivor search ``tpe.embed`` on each candidate
that passes it, stopping at the first YES.  The search decides a candidate
exactly (proved in ``tpe``); only when it runs out of its node budget,
``tpe.SEARCH_BUDGET``, does one detection decide the candidate instead.
``solve_stu`` and each ``st`` and ``min-st`` promotion call ``_decide``;
it is the only place that counts candidates and detections.
``solve_all_st`` is ``st`` on a restricted instance, which is its own single
promotion.  A promotion of a closed condensation that passed the precheck
is its own closed condensation, so ``st`` promotions skip a second SCC pass
and closure, and pay only their own precheck in ``_promotions``, which
drops the promotions that lose a needed base.  A dropped promotion would
count no candidate and no detection, so dropping it changes no report, and
one ``st`` call in process builds promotions only up to its first YES.  A
promotion that passes holds a plough, as its facilities lie in R.  A
promotion changes weights only, so it shares the host's rows
(``Instance._reweighted``) and builds just its facility and base masks; a
restricted host is its own single promotion, the host object itself.
Every detection of a call runs with ``params.seed``: each bound below is a
union bound over single detections, so it needs no independence between
them.

The search is exact and detections are one-sided, so YES answers are
certain.  A NO answer is wrong only if the first embeddable candidate in
search order was left to a detection and that detection missed; a
detection misses a tree of order eta with probability at most 2*eta/2^64
(Schwartz-Zippel, proved in ``tpe``).  A NO whose surviving candidates
were all searched is certain, and carries bound 0.  Each entry point
computes one cap, eta_max, with ``_check_scale`` before any work, and
``_decide`` draws no candidate above it: min(2L - 1, L + kB - 1, n) for
``st``, ``min-st`` and ``max-st``, with L = |F u B| and kB the ploughs of
the condensation, since every promotion has at most L facilities and a
budget of at most kB; and min(2(|F| + k) - 1, n) for ``stu``, which has no
normal form.  So a NO after a detection carries ``2*eta_max/2^64``,
``min-st`` that bound times its detections that found nothing (those that
could change the optimum), and ``max-st`` the sum of its subsets' bounds
above the optimum.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from . import trees
from .digraph import (
    Instance,
    SolutionWalks,
    bits,
    condense,
    facilities_connected,
    reach,
    transitive_closure,
    verify_st_solution,
    walks_from_lists,
)
from .exact import solve_st_exact, solve_variant_exact
from .tpe import build_circuit, detect_zt_multilinear, embed, placements
from .trees import TreeCandidate, candidate_stream


@dataclass(frozen=True)
class SolveParams:
    """Options of one solve call: ``seed`` seeds every detection of the call,
    ``exact_threshold`` routes a call on n <= exact_threshold vertices to the
    exact engine, and ``jobs`` caps the worker processes."""

    seed: int = 1
    exact_threshold: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass
class SolveReport:
    """Outcome plus accounting.

    failure_bound bounds the probability that the reported answer is wrong:
    zero for certain answers (YES decisions, exact-path results, NO
    decisions that ran no detection), the proven one-detection miss bound
    2*eta_max/2^64 for NO decisions that ran one, and a union of such bounds
    over the answer-relevant detections for the optimization variants.

    detections_run counts the budget fallbacks: the candidates that the
    survivor search (``tpe.embed``) left undecided, each decided by one
    detection.  The search decides every other candidate past the filter.
    """

    answer: bool
    optimum: Optional[int] = None
    candidates_tested: int = 0
    detections_run: int = 0
    elapsed: float = 0.0
    failure_bound: float = 0.0
    witness: Optional[SolutionWalks] = None


def _timed(solve):
    """Public entry point whose report carries the call's wall time."""

    @functools.wraps(solve)
    def timed(*args, **kwargs) -> SolveReport:
        t0 = time.perf_counter()
        report = solve(*args, **kwargs)
        report.elapsed = time.perf_counter() - t0
        return report

    return timed


def _miss(eta_max: int) -> float:
    """Chance that one detection misses an embeddable tree of order at most
    eta_max."""
    return 2 * eta_max / 2**64


# kept only for bench/scan.py, which draws the catalogue with it, until that
# scan is redrawn on the base-reachability rule (ROADMAP item 1)
def _facilities_in_one_weak_component(inst: Instance) -> bool:
    return facilities_connected(inst, inst.arcs)


def _base_reach_connects_facilities(inst: Instance) -> bool:
    """Necessary for a YES (module docstring): every facility lies in R, the
    bases and all vertices reachable from them, and all facilities lie in one
    weak component of the subgraph induced by R."""
    within = reach(inst.base_mask, inst.out_mask)
    fac = inst.fac_mask
    if fac & ~within:
        return False
    both = tuple(o | i for o, i in zip(inst.out_mask, inst.in_mask))
    return not fac & ~reach(fac & -fac, both, within)


def _settled(inst: Instance) -> tuple[Optional[Instance], Optional[int]]:
    """(host, need) for inst (module docstring).  host: the transitive
    closure of the condensation, the one closed search host that decides
    inst when a search must, else None.  need, when host is None: the fewest
    ploughs that clear inst, 0 with at most one facility and 1 when every
    facility lies in one strongly connected component, or None when the
    precheck, run on inst before any condensation or closure, proves inst a
    NO."""
    if inst.fac_mask.bit_count() <= 1:
        return None, 0
    if not _base_reach_connects_facilities(inst):
        return None, None
    host = condense(inst)
    if host.fac_mask.bit_count() <= 1:
        return None, 1
    return transitive_closure(host), None


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


def _candidate_feasible(
    host: Instance,
    cand: TreeCandidate,
    terminals: frozenset[int],
    pin: Optional[int] = None,
    onto: Optional[int] = None,
) -> Optional[list[int]]:
    """Cheap necessary conditions for an embedding that respects pin and
    onto; never prunes a true YES.  Returns the placements when they hold,
    for the survivor search to draw from, else None.

    Every tree vertex needs a placement (``tpe.placements`` under pin and
    onto), then a matching must saturate the tree side and another one the
    terminal set.
    Host vertex sets are int bitmasks: bit w stands for host vertex w.
    """
    eta = cand.order
    compat = placements(host, cand, pin, onto)
    if not compat[0]:
        return None
    if not _kuhn_saturates(eta, [bits(c) for c in compat]):
        return None
    term_list = sorted(terminals)
    term_adj = [[v for v in range(eta) if compat[v] >> w & 1] for w in term_list]
    return compat if _kuhn_saturates(len(term_list), term_adj) else None


def _check_scale(l_param: int, n: int, budget: Optional[int] = None) -> int:
    """Largest candidate order a decision with parameter l_param on n vertices
    could test: min(2*l_param - 1, n), and at most l_param + budget - 1 for a
    normal-form decision within a plough budget (module docstring).
    ValueError, before any work, when it exceeds the enumeration cap."""
    eta_max = min(2 * l_param - 1, n)
    if budget is not None:
        eta_max = min(eta_max, l_param + budget - 1)
    if eta_max > trees.MAX_ORDER:
        raise ValueError(
            f"parameter {l_param} needs candidate trees up to order {eta_max}, beyond "
            f"the enumeration cap {trees.MAX_ORDER}; use the exact path"
        )
    return eta_max


def _promotions_cap(host: Instance) -> int:
    """``_check_scale`` for the promotions of host: each has at most
    |F u B| facilities and a budget of at most host's ploughs."""
    return _check_scale((host.fac_mask | host.base_mask).bit_count(), host.n, host.total_ploughs())


def _decide(
    host: Instance,
    budget: int,
    seed: int,
    report: SolveReport,
    order: Optional[Callable[[TreeCandidate], object]] = None,
) -> tuple[Optional[TreeCandidate], int]:
    """(hit, misses): hit is the first tree with total demand at most budget
    found embedded in host covering every facility of host, or None, and
    misses counts the detections that found nothing.  host is
    transitively closed, a ``_settled`` host or a promotion of one, has at
    least two facilities and has passed the precheck, in ``_settled`` or in
    ``_promotions``: this is the candidate loop and nothing else.

    Trees go up to ``_check_scale``'s order for host: with parameter |F| and
    the budget on a restricted host, where only normal-form trees are drawn
    and placed (module docstring), else with parameter |F| + budget.  A
    restricted budget of 0 caps the order at |F| - 1, so no tree is drawn.
    Candidates come in enumeration order, or sorted by the key ``order``.
    ``tpe.embed`` decides each candidate that passes the filter, and a
    detection, with ``seed``, decides it only when the search runs out of
    budget.  Counts every candidate drawn and every detection run into
    ``report``.
    """
    fac_mask = host.fac_mask
    t = fac_mask.bit_count()
    restricted = not host.base_mask & ~fac_mask
    if restricted:
        top = _check_scale(t, host.n, budget)
    else:
        top = _check_scale(t + budget, host.n)
    fac = host.facilities()
    sources, pin = (t, fac_mask) if restricted else (None, None)
    stream = candidate_stream(t, top, budget=budget, sources=sources)
    missed = 0
    for cand in stream if order is None else sorted(stream, key=order):
        report.candidates_tested += 1
        onto = fac_mask if cand.order == t else None
        dom = _candidate_feasible(host, cand, fac, pin, onto)
        if dom is None:
            continue
        found = embed(host, cand, fac, dom)
        if found is None:  # the search ran out of budget: a detection decides
            circuit = build_circuit(host, cand, fac, pin, onto)
            report.detections_run += 1
            found = detect_zt_multilinear(circuit, t=t, k=cand.order, seed=seed)
            missed += not found
        if found:
            return cand, missed
    return None, missed


@_timed
def solve_all_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """Decision for restricted instances (every plough base is a facility):
    ``solve_st``, the instance being its own single promotion."""
    if inst.base_mask & ~inst.fac_mask:
        raise ValueError("restricted instance required: plough bases must be facilities")
    return _solve_st(inst, params, _Workers(1))


def _promoted_decision(sub: Instance, seed: int) -> SolveReport:
    """The decision of one promotion that ``_promotions`` yields: restricted,
    acyclic, closed and past the precheck, so it is its own closed
    condensation and ``_decide`` only searches it.  Its failure bound stays
    0: the caller bounds its NO by the cap of the whole call."""
    report = SolveReport(answer=False)
    report.answer = _decide(sub, sub.total_ploughs(), seed, report)[0] is not None
    return report


def _promotions(inst: Instance):
    """The restricted sub-instances, from promoting base subsets to
    facilities, that pass the precheck, built one at a time in subset order
    on inst's arcs and rows.  A promotion that fails it is a certain NO that
    would count no candidate, so it is never yielded.  A restricted inst is
    its only promotion, yielded as is: ``_settled`` has checked it already,
    and closing gives it the same verdict (module docstring)."""
    fac, bases = inst.fac_mask, inst.base_mask
    extra = bits(bases & ~fac)
    if not extra:
        yield inst
        return
    for size in range(len(extra) + 1):
        for subset in itertools.combinations(extra, size):
            added = sum(1 << v for v in subset)
            promoted, keep = fac | added, added | (fac & bases)
            sub = inst._reweighted(
                tuple(bool(promoted >> v & 1) for v in range(inst.n)),
                tuple(b if keep >> v & 1 else 0 for v, b in enumerate(inst.ploughs)),
            )
            if _base_reach_connects_facilities(sub):
                yield sub


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


class _Workers:
    """One top-level call's process pool: started by the first map of more
    than one task when jobs > 1, with min(jobs, tasks, usable CPUs) workers,
    then shared.  ``map`` takes any iterable of tasks and lists it only when
    it may start the pool; in process it draws them lazily, so a caller that
    stops at a result builds no task past it."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.pool: Optional[ProcessPoolExecutor] = None

    def map(self, fn, subs):
        if self.pool is None and self.jobs > 1:  # jobs=1 never asks for the CPUs
            subs = list(subs)
            workers = min(self.jobs, len(subs), _usable_cpus())
            if workers > 1:
                self.pool = ProcessPoolExecutor(max_workers=workers)
        return (map if self.pool is None else self.pool.map)(fn, subs)

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            # subs already running in a worker still finish; queued ones are dropped
            self.pool.shutdown(cancel_futures=True)


@_timed
def solve_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """General decision: enumerate base promotions, solve each restricted case.

    Sub-reports are read in promotion order up to the first YES, whichever
    ``jobs`` runs them, so every ``jobs`` value gives the same report.
    """
    with _Workers(params.jobs) as workers:
        return _solve_st(inst, params, workers)


def _solve_st(inst: Instance, params: SolveParams, workers: _Workers) -> SolveReport:
    if inst.n <= params.exact_threshold:
        ans, witness = solve_st_exact(inst)
        return SolveReport(answer=ans, witness=witness)
    host, need = _settled(inst)
    if host is None:  # a precheck NO is certain for every promotion (module docstring)
        return SolveReport(answer=need is not None)
    cap = _promotions_cap(host)
    report = SolveReport(answer=False)
    # promotions of the condensation stay on the pipeline, however few vertices
    decide = functools.partial(_promoted_decision, seed=params.seed)
    for sub in workers.map(decide, _promotions(host)):
        report.candidates_tested += sub.candidates_tested
        report.detections_run += sub.detections_run
        if sub.answer:
            report.answer = True
            return report
    if report.detections_run:
        report.failure_bound = _miss(cap)
    return report


def _lightest_first(cand: TreeCandidate) -> tuple:
    """``min-st``'s candidate order: demand, order, then the printed code
    ``code_str``.  A center-rooted free tree on at most ``MAX_ORDER`` = 16
    vertices has depth at most 8, so every level is one digit and the level
    strings compare as the depth tuples; 'd' sorts before 'u'."""
    return cand.total_demand(), cand.order, cand.free_code, tuple(not d for d in cand.orientation)


@_timed
def solve_min_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """Minimum ploughs, among those placed, that suffice; infeasible -> answer False."""
    if inst.n <= params.exact_threshold:
        best = solve_variant_exact(inst, "min-st")
        return SolveReport(answer=best is not None, optimum=best)
    host, need = _settled(inst)
    if host is None:
        return SolveReport(answer=need is not None, optimum=need)
    cap = _promotions_cap(host)
    report = SolveReport(answer=False)
    best: Optional[int] = None
    misses = 0
    for sub in _promotions(host):
        kb = sub.total_ploughs()
        budget = kb if best is None else min(kb, best - 1)  # only lighter candidates
        hit, missed = _decide(sub, budget, params.seed, report, order=_lightest_first)
        misses += missed
        if hit is not None:
            best = hit.total_demand()
    report.answer = best is not None
    report.optimum = best
    # every detection tested a tree of order at most cap, so each missed with
    # chance at most _miss(cap), and only a detection that found nothing can
    # have missed.  A wrong optimum needs some lighter candidate's detection
    # to have missed; a wrong "infeasible" needs some embeddable candidate
    # missed
    relevant = misses if best is not None else min(misses, 1)
    report.failure_bound = relevant * _miss(cap)
    return report


@_timed
def solve_max_st(inst: Instance, params: SolveParams = SolveParams()) -> SolveReport:
    """Largest facility subset that can be reconnected with the placed ploughs."""
    if inst.n <= params.exact_threshold:
        best = solve_variant_exact(inst, "max-st")
        return SolveReport(answer=True, optimum=best)
    fac = bits(inst.fac_mask)
    if len(fac) > 1:
        host = condense(inst)  # each subset condenses to these vertices, no more facilities
        _promotions_cap(host)
    report = SolveReport(answer=True)
    with _Workers(params.jobs) as workers:  # one pool for every subset
        for size in range(len(fac), 1, -1):
            size_misses = 0.0
            for subset in map(set, itertools.combinations(fac, size)):
                trimmed = inst._reweighted(tuple(v in subset for v in range(inst.n)), inst.ploughs)
                sub = _solve_st(trimmed, params, workers)
                report.candidates_tested += sub.candidates_tested
                report.detections_run += sub.detections_run
                if sub.answer:
                    report.optimum = size
                    return report
                size_misses += sub.failure_bound
            # a missed NO at the optimum's own size cannot change the optimum
            report.failure_bound += size_misses
    report.optimum = min(1, len(fac))
    return report


@_timed
def solve_stu(inst: Instance, k: int, params: SolveParams = SolveParams()) -> SolveReport:
    """Decision with k freely placed ploughs; the instance's B is ignored.

    Every vertex may hold a plough, so every vertex is in R and the
    base-reachability precheck reduces to weak connectivity of the
    facilities in D.  The condensation of the free host is the free host of
    the condensation: each component's ploughs reach the cap.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if inst.n <= params.exact_threshold:
        return SolveReport(answer=solve_variant_exact(inst, "stu", k=k))
    # capacity n-1 everywhere is equivalent to unconstrained: demands never exceed it
    host, need = _settled(inst._reweighted(inst.facility, (inst.n - 1,) * inst.n))
    if host is None:
        return SolveReport(answer=need is not None and k >= need)
    cap = _check_scale(host.fac_mask.bit_count() + k, host.n)  # no normal form
    report = SolveReport(answer=False)
    # host has two facility components: with no plough no arc is cleared
    report.answer = k > 0 and _decide(host, k, params.seed, report)[0] is not None
    report.failure_bound = _miss(cap) if report.detections_run and not report.answer else 0.0
    return report


# ---------------------------------------------------------------------------
# walk normalization

def normalize_to_tree_like(tc_inst: Instance, sol: SolutionWalks) -> SolutionWalks:
    """Rewrite a verifying solution on a transitively closed restricted
    instance into arc-distinct simple paths whose union is a tree on at most
    2|F|-1 vertices: the constructive proof of the bound ``_check_scale`` uses.

    One rule, applied until it no longer applies: delete a vertex after a
    walk's start, its last one or an inner w[i] that the closure's arc
    (w[i-1], w[i+1]) shortcuts, if the walks still verify.  Walks go in
    order, positions from the last one down; the first deletion that
    verifies is made, then the search restarts.  Each deletion shortens a
    walk, so the rule stops.  At its fixpoint:

    No edge is used twice or lies on a cycle.  Else take the last such
    position t of a walk w.  If w[t]w[t+1] is w's last arc, dropping it keeps
    every vertex joined.  Otherwise w[t+1]w[t+2] is a bridge used once, not
    w[t]w[t+1] again, so w[t] != w[t+2] and the closure has (w[t], w[t+2]).
    Without both arcs w[t] stays joined to w[t+1] (by the other use, or by
    the cycle, which avoids the bridge), so the shortcut rejoins w[t+2]'s
    side and every vertex stays joined.  Either way the rule would apply.
    So the union is a forest, each walk a simple path (a return would
    retrace an edge), and, as all walks start at joined facilities, a tree.

    At most 2|F|-1 vertices when |F| >= 2.  A tree vertex v that is no
    facility starts no walk, so out(v) <= in(v); with in(v) = 1 it is a leaf
    or one walk's inner vertex and could be deleted, so in(v) >= 2.  The
    in-degrees sum to |V|-1 and every facility is on the tree, so
    2(|V|-|F|) <= |V|-1.
    """
    if tc_inst.base_mask & ~tc_inst.fac_mask:
        raise ValueError("restricted instance required")
    if transitive_closure(tc_inst).out_mask != tc_inst.out_mask:
        raise ValueError("instance must be transitively closed")
    ok, reason = verify_st_solution(tc_inst, sol)
    if not ok:
        raise ValueError(f"input solution must verify: {reason}")

    def deletions(walks):
        for j, w in enumerate(walks):
            for i in range(len(w) - 1, 0, -1):
                if i == len(w) - 1 or tc_inst.out_mask[w[i - 1]] >> w[i + 1] & 1:
                    yield walks[:j] + (w[:i] + w[i + 1 :],) + walks[j + 1 :]

    def verifies(walks):
        return verify_st_solution(tc_inst, walks_from_lists(walks))[0]

    walks = tuple(w.vertices for w in sol.walks)
    while (step := next(filter(verifies, deletions(walks)), None)) is not None:
        walks = step
    out = walks_from_lists(walks)
    assert is_tree_like(out), "normalized walks must be tree-like"
    fac = tc_inst.facilities()
    if len(fac) >= 2:
        touched = {v for w in walks if len(w) >= 2 for v in w}
        assert len(touched) <= 2 * len(fac) - 1, "union tree larger than the bound"
    return out


def is_tree_like(sol: SolutionWalks) -> bool:
    """Arc-distinct simple paths whose union's underlying graph is acyclic.

    One union-find pass over the walks' arcs: an arc whose ends are already
    joined is a repeated edge, a cycle or a walk that returns to a vertex.
    """
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for w in sol.walks:
        for a, b in w.arcs():
            ra, rb = root(a), root(b)
            if ra == rb:
                return False
            parent[ra] = rb
    return True
