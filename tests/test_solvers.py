import hashlib
import importlib
import importlib.util
import json
import pickle
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from snowteam import tpe
from snowteam.cli import gen_random

from snowteam.digraph import (
    condense,
    make_instance,
    transitive_closure,
    verify_st_solution,
    walks_from_lists,
)
from snowteam.exact import solve_st_exact, solve_variant_exact
from snowteam.gadgets import gen_fig3
from snowteam.selfcheck import random_verifying_walks
from snowteam.solvers import (
    SolveParams,
    SolveReport,
    _base_reach_connects_facilities,
    _candidate_feasible,
    _facilities_in_one_weak_component,
    _kuhn_saturates,
    _lightest_first,
    _miss,
    is_tree_like,
    normalize_to_tree_like,
    solve_all_st,
    solve_max_st,
    solve_min_st,
    solve_st,
    solve_stu,
)
from snowteam.trees import MAX_ORDER, candidate_stream, enumerate_free_trees

PARAMS = SolveParams(seed=7)
CATALOGUE = Path(__file__).resolve().parents[1] / "bench" / "catalogue.json"


@pytest.fixture
def detect_every_survivor(monkeypatch):
    """Search budget 0: the survivor search gives up at once, so a detection
    decides every candidate that passes the filter, as in the paper."""
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 0)


def _catalogue(family):
    return [
        make_instance(
            spec["n"],
            [tuple(a) for a in spec["arcs"]],
            set(spec["facilities"]),
            {v: c for v, c in enumerate(spec["ploughs"]) if c},
        )
        for spec in json.loads(CATALOGUE.read_text())[family]
    ]


def toy1():
    return make_instance(3, [(0, 1), (1, 2)], {0, 2}, {0: 1})


def toy2():
    return make_instance(3, [(1, 0), (1, 2)], {0, 2}, {0: 1})


def test_all_st_examples():
    assert solve_all_st(toy1(), PARAMS).answer
    rep = solve_all_st(toy2(), PARAMS)
    assert not rep.answer
    assert rep.failure_bound < 1e-3
    single = make_instance(4, [(0, 1)], {2}, {2: 1})
    assert solve_all_st(single, PARAMS).answer


# restricted acyclic NOs whose one candidate that passes the filter has more
# vertices than facilities, so the onto-F pin leaves it to a detection
DETECTED_NOS = (
    make_instance(6, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (4, 5)], {0, 2, 4}, {0: 1, 2: 2}),
    make_instance(6, [(0, 2), (0, 4), (1, 2), (1, 3), (2, 5), (3, 4)], {1, 2, 3}, {1: 1, 3: 1}),
    make_instance(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 3), (3, 4)], {0, 1, 2, 3}, {0: 1, 2: 1, 3: 1}
    ),
)


def test_all_st_no_after_real_detections(monkeypatch):
    # a normal-form candidate on four vertices, the paths 1 -> 2 -> x and
    # 3 -> x, passes the feasibility filters yet nothing embeds (certified by
    # the exact oracle): the plough at 1 reaches 2 or 3, not both.  Left to a
    # detection, the NO carries a nonzero failure bound; the survivor search
    # exhausts the candidate and makes the NO certain.  The host is acyclic,
    # so condensing leaves it alone
    inst = DETECTED_NOS[1]
    assert not solve_st_exact(inst)[0]
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 0)
    rep = solve_all_st(inst, PARAMS)
    assert not rep.answer
    assert rep.detections_run >= 1
    assert 0 < rep.failure_bound < 1e-3
    monkeypatch.undo()
    rep = solve_all_st(inst, PARAMS)
    assert not rep.answer
    assert rep.detections_run == 0 and rep.failure_bound == 0.0


def test_all_st_no_decided_by_the_onto_pin():
    # the plough at 1 reaches 0 or 4, not both; the one candidate that passes
    # the normal-form filter has |F| = 3 vertices, and confined to F no
    # placement of it survives, so the NO is certain
    inst = make_instance(
        5, [(1, 2), (1, 4), (2, 0), (2, 4), (3, 4)], {0, 1, 3}, {1: 1, 3: 1}
    )
    assert not solve_st_exact(inst)[0]
    rep = solve_all_st(inst, PARAMS)
    assert not rep.answer
    assert rep.detections_run == 0 and rep.failure_bound == 0.0


def test_all_st_cyclic_no_decided_on_the_condensation():
    # the cycles 0-3 and 1-5 contract: the one plough at 4 must reach both
    # facility components {0, 3} and {1, 5}, and no candidate within one
    # plough passes the filter on the 4-vertex condensation
    inst = make_instance(
        6, [(0, 3), (1, 5), (3, 0), (4, 0), (4, 5), (5, 1)], {3, 4, 5}, {4: 1}
    )
    assert not solve_st_exact(inst)[0]
    rep = solve_all_st(inst, PARAMS)
    assert not rep.answer
    assert rep.detections_run == 0 and rep.failure_bound == 0.0


def test_all_st_requires_restricted_input():
    unrestricted = make_instance(3, [(0, 1), (1, 2)], {2}, {0: 1})
    with pytest.raises(ValueError, match="restricted"):
        solve_all_st(unrestricted, PARAMS)


def test_all_st_no_detections_is_certain():
    split = make_instance(4, [(0, 1), (2, 3)], {0, 3}, {0: 1, 3: 1})
    # facilities in different weak components: certain NO without detections
    rep = solve_all_st(split, PARAMS)
    assert not rep.answer and rep.detections_run == 0 and rep.failure_bound == 0.0


# oracle-NO instances that the base-reachability precheck decides; R is the
# bases plus every vertex reachable from them
RULE_NOS = {
    # facility 1 is weakly joined to the base but not reachable from it
    "reachability": make_instance(2, [(1, 0)], {0, 1}, {0: 1}),
    # both facilities are bases, in different weak components
    "component": make_instance(4, [(0, 1), (2, 3)], {0, 2}, {0: 1, 2: 1}),
    # both facilities are bases and weakly joined, but only through vertex 2,
    # which is outside R
    "combined": make_instance(3, [(2, 0), (2, 1)], {0, 1}, {0: 1, 1: 1}),
}


@pytest.mark.parametrize("name", sorted(RULE_NOS))
def test_base_reachability_decides_without_candidates(name):
    inst = RULE_NOS[name]
    assert not solve_st_exact(inst)[0]
    assert not _base_reach_connects_facilities(inst)
    for solve in (solve_all_st, solve_st, solve_min_st):
        rep = solve(inst, PARAMS)
        assert not rep.answer and rep.optimum is None, solve
        assert (rep.candidates_tested, rep.detections_run, rep.failure_bound) == (0, 0, 0.0)


def test_base_reachability_halves():
    # the first and last cases pass the plain weak-component test on D
    assert _facilities_in_one_weak_component(RULE_NOS["reachability"])
    assert not _facilities_in_one_weak_component(RULE_NOS["component"])
    assert _facilities_in_one_weak_component(RULE_NOS["combined"])


def test_base_reachability_rules_out_every_promotion(monkeypatch):
    # the only base, 2, reaches facility 0 but not facility 1, so no
    # promotion of it can help, and max-st's one two-facility subset is NO
    from snowteam import solvers

    inst = make_instance(3, [(2, 0), (1, 0)], {0, 1}, {2: 2})
    assert not solve_st_exact(inst)[0]
    decided = []
    monkeypatch.setattr(solvers, "_promoted_decision", lambda *args: decided.append(args))
    for solve in (solve_st, solve_min_st):
        rep = solve(inst, PARAMS)
        assert not rep.answer and rep.candidates_tested == 0 and rep.failure_bound == 0.0
    rep = solve_max_st(inst, PARAMS)
    assert rep.optimum == 1 and rep.candidates_tested == 0 and rep.failure_bound == 0.0
    assert decided == []  # one check on the original bases, no promotion built


def test_base_reachability_never_rejects_a_yes():
    """Seeded property: whenever the precheck says NO, the exact oracle does,
    on gen_random instances (ploughs on facilities) and on the same instances
    with the ploughs moved to arbitrary vertices."""
    rng = random.Random(20261018)
    checked = flagged = 0
    while checked < 2000:
        n = rng.randint(3, 7)
        inst = gen_random(n, rng.randint(n - 2, 2 * n), 0.5, rng.randrange(10**6), rng.randint(1, 2))
        if len(inst.facilities()) < 2:
            continue
        moved = [0] * n
        for _ in range(rng.randint(1, 3)):
            moved[rng.randrange(n)] += 1
        for case in (inst, replace(inst, ploughs=tuple(min(c, n - 1) for c in moved))):
            if not _base_reach_connects_facilities(case):
                flagged += 1
                assert not solve_st_exact(case)[0], case
        checked += 1
    assert flagged >= 1000


def test_solve_st_examples():
    assert solve_st(toy1(), PARAMS).answer
    assert not solve_st(toy2(), PARAMS).answer


def test_solve_st_promotes_bases():
    # ploughs at a non-facility vertex: it must be promoted to be useful
    inst = make_instance(3, [(0, 1), (0, 2)], {1, 2}, {0: 2})
    assert solve_st(inst, PARAMS).answer
    starved = make_instance(3, [(0, 1), (0, 2)], {1, 2}, {0: 1})
    assert not solve_st(starved, PARAMS).answer


def test_solve_st_exact_threshold_routes_to_oracle():
    rep = solve_st(toy1(), SolveParams(exact_threshold=8))
    assert rep.answer and rep.witness is not None
    ok, reason = verify_st_solution(toy1(), rep.witness)
    assert ok, reason
    assert rep.failure_bound == 0.0


def test_solve_types_keep_their_contract():
    assert SolveParams() == SolveParams(1, 0, 1) == SolveParams(seed=1, exact_threshold=0, jobs=1)
    params = SolveParams(7, 3, 2)
    assert (params.seed, params.exact_threshold, params.jobs) == (7, 3, 2)
    assert params == SolveParams(seed=7, exact_threshold=3, jobs=2) != SolveParams(7, 3)
    assert len({params, SolveParams(7, 3, 2)}) == 1
    assert pickle.loads(pickle.dumps(params)) == params
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        SolveParams(jobs=0)
    report = SolveReport(True)
    defaults = (None, 0, 0, 0.0, 0.0, None)
    assert report == SolveReport(answer=True, **dict(zip(
        ("optimum", "candidates_tested", "detections_run", "elapsed", "failure_bound", "witness"),
        defaults,
    )))
    walks = walks_from_lists([[0, 1, 2]])
    full = SolveReport(False, 2, 3, 1, 0.5, 1e-18, walks)
    assert (full.answer, full.optimum, full.candidates_tested, full.detections_run) == (False, 2, 3, 1)
    assert (full.elapsed, full.failure_bound, full.witness) == (0.5, 1e-18, walks)
    assert full != report
    full.answer, full.optimum = True, None  # reports are filled in as a solve runs
    assert full != SolveReport(False, 2, 3, 1, 0.5, 1e-18, walks)
    with pytest.raises(TypeError):
        hash(full)  # mutable, so unhashable
    solved = solve_st(toy1(), PARAMS)  # --jobs workers return their reports pickled
    for value in (full, solved):
        assert pickle.loads(pickle.dumps(value)) == value


def _two_promotions():
    return make_instance(5, [(0, 1), (1, 2), (3, 4), (4, 2), (3, 0)], {0, 2}, {0: 1, 3: 1})


def _report_fields(rep):
    return (rep.answer, rep.candidates_tested, rep.detections_run, rep.failure_bound)


def test_solve_st_parallel_jobs_agree():
    # YES at the first of two promotions: the second one's detection must
    # not be counted, however many workers run
    for inst in (toy1(), _two_promotions()):
        a = solve_st(inst, PARAMS)
        b = solve_st(inst, SolveParams(seed=7, jobs=2))
        assert _report_fields(a) == _report_fields(b)


def test_jobs_pool_only_for_several_promotions(monkeypatch):
    from snowteam import solvers

    started = []
    real = solvers.ProcessPoolExecutor

    def counting(*args, **kwargs):
        started.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 8)  # not capped on a 1-CPU host
    two = SolveParams(seed=7, jobs=2)
    assert solve_st(toy1(), two).answer  # one promotion: no pool
    assert started == []
    assert _report_fields(solve_st(_two_promotions(), two)) == _report_fields(
        solve_st(_two_promotions(), PARAMS)
    )
    assert started == [{"max_workers": 2}]
    # max-st: every facility subset it decides is one st decision, and the
    # whole call shares one pool, started by the first subset with more than
    # one promotion that passes the precheck (counted on the one-job call)
    real_promotions = solvers._promotions
    viable = []

    def listed(host):
        subs = list(real_promotions(host))
        viable.append(len(subs))
        return iter(subs)

    pooled = []
    for inst in _catalogue("max-st"):
        viable.clear()
        with monkeypatch.context() as m:
            m.setattr(solvers, "_promotions", listed)
            one = solve_max_st(inst, SolveParams(seed=3))
        several = max(viable, default=0) >= 2
        started.clear()
        rep = solve_max_st(inst, SolveParams(seed=3, jobs=2))
        assert started == ([{"max_workers": 2}] if several else [])
        assert (rep.optimum, *_report_fields(rep)) == (one.optimum, *_report_fields(one))
        pooled.append(several)
    assert True in pooled and False in pooled


def _sixty_four_promotions():
    # facilities 0 and 7 on an acyclic host, six non-facility bases: 64
    # promotions, of which only the empty one fails the precheck (no base)
    arcs = [(i, j) for i in range(1, 7) for j in (0, 7)] + [(i, i + 1) for i in range(1, 6)]
    return make_instance(8, arcs, {0, 7}, {v: 1 for v in range(1, 7)})


def test_jobs_pool_capped_at_usable_cpus(monkeypatch):
    from snowteam import solvers

    started = []

    def fake_pool(**kwargs):  # records the request, starts no process
        started.append(kwargs)
        return SimpleNamespace(map=map, shutdown=lambda **_: None)

    inst = _sixty_four_promotions()
    assert solvers._usable_cpus() >= 1
    monkeypatch.setattr(solvers, "ProcessPoolExecutor", fake_pool)
    for cpus, workers in ((1, None), (2, 2), (5, 5), (100, 63)):
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: cpus)
        started.clear()
        rep = solve_st(inst, SolveParams(seed=7, jobs=64))
        assert started == ([] if workers is None else [{"max_workers": workers}])
        assert _report_fields(rep) == _report_fields(solve_st(inst, PARAMS))


def test_one_job_builds_promotions_up_to_its_first_yes(monkeypatch):
    # promotions are built one at a time: st's first YES is its eighth
    # promotion, and max-st's one facility subset is one more reweighting
    from snowteam.digraph import Instance

    built = []
    real = Instance._reweighted
    monkeypatch.setattr(Instance, "_reweighted", lambda self, *w: built.append(w) or real(self, *w))
    for solve, most in ((solve_st, 8), (solve_max_st, 9)):
        built.clear()
        assert solve(_sixty_four_promotions(), PARAMS).answer, solve
        assert len(built) <= most, solve


def _corpus_reports():
    """(answer, optimum, candidates, detections, bound) of st, min-st, max-st
    and stu with k = 1 and k = 2 on 600 seeded hosts, cycles allowed."""
    from test_derived import _random_instances

    for inst in _random_instances(3535, 600):
        for solve in (solve_st, solve_min_st, solve_max_st):
            yield solve(inst, PARAMS)
        for k in (1, 2):
            yield solve_stu(inst, k, PARAMS)


def test_the_search_only_sees_hosts_past_the_precheck(monkeypatch, detect_every_survivor):
    from snowteam import solvers

    searched = []
    real = solvers._decide
    monkeypatch.setattr(
        solvers, "_decide", lambda host, *args, **kw: searched.append(host) or real(host, *args, **kw)
    )
    assert sum(rep.detections_run > 0 for rep in _corpus_reports()) >= 300
    assert len(searched) >= 400
    assert all(map(_base_reach_connects_facilities, searched))


# sha256 over the repr of each report's (answer, optimum, candidates,
# detections, bound), with a detection deciding every survivor: where a
# decision is taken must not move any report
CORPUS_DIGEST = "98adda4f36a27b8576ff799036573c2588386a5e301e63964109a441fbf771a6"


def _corpus_digest() -> str:
    digest = hashlib.sha256()
    for r in _corpus_reports():
        fields = (r.answer, r.optimum, r.candidates_tested, r.detections_run, r.failure_bound)
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def test_corpus_reports_digest(detect_every_survivor):
    assert _corpus_digest() == CORPUS_DIGEST


# the same digest with the survivor search deciding every survivor: only
# detections and bounds differ from CORPUS_DIGEST's reports
SEARCHED_CORPUS_DIGEST = "874a04636daaa7c5053e6184105a8de0b0d2d2562472855b730c1fb3b69ae258"


def test_corpus_reports_digest_with_the_search():
    assert _corpus_digest() == SEARCHED_CORPUS_DIGEST


def test_stu_without_ploughs_draws_no_tree(monkeypatch):
    # two facility components: k = 0 is a certain NO before any candidate
    from snowteam import trees

    drawn = []
    monkeypatch.setattr(trees, "orient_tree", lambda *a, **kw: drawn.append(a) or iter(()))
    for inst in (toy1(), _two_promotions(), _sixty_four_promotions()):
        rep = solve_stu(inst, 0, PARAMS)
        assert (rep.answer, rep.candidates_tested, rep.detections_run, rep.failure_bound) == (
            False, 0, 0, 0.0
        )
    assert drawn == []


def test_one_closure_per_settled_host(monkeypatch):
    # every promotion, min-st budget and the stu host reweights the one closed
    # condensation that _settled builds; max-st has one facility subset here
    from snowteam import solvers

    inst = _sixty_four_promotions()
    closed = []
    real = solvers.transitive_closure
    monkeypatch.setattr(solvers, "transitive_closure", lambda h: closed.append(h) or real(h))
    stu = lambda inst, p: solve_stu(inst, 2, p)  # noqa: E731
    for solve in (solve_st, solve_min_st, solve_max_st, stu):
        closed.clear()
        rep = solve(inst, PARAMS)
        assert rep.answer and rep.candidates_tested >= 1, solve
        assert len(closed) == 1, solve


def test_min_st_order_is_the_printed_code_order():
    # min-st sorts by the code's fields; the printed code sorted the same way
    # while every depth is one digit
    printed = lambda c: (c.total_demand(), c.order, c.code_str())  # noqa: E731
    for f in range(2, 6):
        for budget in range(1, 6):
            for sources in (None, f):
                stream = list(candidate_stream(f, 2 * f - 1, budget=budget, sources=sources))
                assert sorted(stream, key=_lightest_first) == sorted(stream, key=printed)
    assert all(max(t.code) <= 8 for n in range(1, 13) for t in enumerate_free_trees(n))


def test_one_job_never_asks_for_the_cpus(monkeypatch):
    from snowteam import solvers

    def refuse():
        raise AssertionError("jobs=1 asked for the usable CPUs")

    monkeypatch.setattr(solvers, "_usable_cpus", refuse)
    with solvers._Workers(1) as workers:
        assert list(workers.map(abs, [-1, -2, -3])) == [1, 2, 3]
        assert workers.pool is None
    assert solve_st(_two_promotions(), PARAMS).answer  # two promotions, mapped in process


def test_every_detection_of_a_call_uses_its_seed(monkeypatch, detect_every_survivor):
    from snowteam import solvers

    seeds = []
    real = solvers.detect_zt_multilinear

    def spy(circuit, t, k, seed):
        seeds.append(seed)
        return real(circuit, t=t, k=k, seed=seed)

    monkeypatch.setattr(solvers, "detect_zt_multilinear", spy)
    params = SolveParams(seed=5)
    cases = [
        (solve_st, _two_promotions()),
        (solve_all_st, DETECTED_NOS[1]),
        (solve_min_st, gen_fig3(5)),
        (lambda inst, p: solve_stu(inst, 4, p), gen_fig3(5)),
        (solve_max_st, MAX_ST_NO_BEFORE_YES),
    ]
    for solve, inst in cases:
        seeds.clear()
        rep = solve(inst, params)
        assert rep.detections_run >= 1 and seeds == [params.seed] * rep.detections_run


def test_every_solver_reports_its_wall_time():
    # pipeline, exact and one-facility paths; both instances are restricted
    restricted = make_instance(3, [(0, 1), (1, 2)], {0, 2}, {0: 1, 2: 1})
    one_facility = make_instance(3, [(0, 1), (1, 2)], {0}, {0: 1})
    stu = lambda inst, p: solve_stu(inst, 1, p)  # noqa: E731
    for solve in (solve_all_st, solve_st, solve_min_st, solve_max_st, stu):
        for inst in (restricted, one_facility):
            for params in (PARAMS, SolveParams(seed=7, exact_threshold=10)):
                assert solve(inst, params).elapsed > 0


def test_span_targets_resolve_to_callables(monkeypatch):
    # the benchmark times layers by rebinding these names; read, never changed
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for t in spans.TARGETS:
        assert callable(getattr(importlib.import_module(t.module), t.attr, None)), t


def _path_of_nine_facilities(ploughs):
    """A 17-vertex directed path with facilities on its 9 even vertices and
    ploughs at vertex 0."""
    n = MAX_ORDER + 1
    return make_instance(n, [(i, i + 1) for i in range(n - 1)], set(range(0, n, 2)), {0: ploughs})


def test_every_entry_point_refuses_over_the_cap():
    # with 9 ploughs the normal form allows trees of order 9 + 9 - 1 = 17
    inst = _path_of_nine_facilities(9)
    start = time.perf_counter()
    for solve in (solve_all_st, solve_st, solve_min_st, solve_max_st):
        with pytest.raises(ValueError, match="use the exact path"):
            solve(inst, PARAMS)
    with pytest.raises(ValueError, match="use the exact path"):
        solve_stu(inst, 1, PARAMS)
    assert time.perf_counter() - start < 1.0


def test_the_plough_budget_caps_the_order():
    # one plough: normal-form trees have at most 9 + 1 - 1 = 9 vertices, so
    # the path is decided, not refused at 2*9 - 1 = 17; stu has no normal form
    inst = _path_of_nine_facilities(1)
    assert solve_st_exact(inst)[0]
    for solve in (solve_all_st, solve_st, solve_min_st, solve_max_st):
        rep = solve(inst, PARAMS)
        assert rep.answer and rep.candidates_tested == 1, solve
    assert solve_min_st(inst, PARAMS).optimum == solve_variant_exact(inst, "min-st") == 1
    assert solve_max_st(inst, PARAMS).optimum == solve_variant_exact(inst, "max-st") == 9
    with pytest.raises(ValueError, match="use the exact path"):
        solve_stu(inst, 1, PARAMS)


def test_min_st_examples():
    assert solve_min_st(toy1(), PARAMS).optimum == 1
    rep = solve_min_st(gen_fig3(5), PARAMS)
    assert rep.answer and rep.optimum == 4
    single = make_instance(2, [(0, 1)], {1}, {0: 1})
    assert solve_min_st(single, PARAMS).optimum == 0
    infeasible = solve_min_st(toy2(), PARAMS)
    assert not infeasible.answer and infeasible.optimum is None


# an acyclic host whose size-4 decision and two size-3 subsets are NOs that
# run detections before a size-3 YES
MAX_ST_NO_BEFORE_YES = make_instance(
    7,
    [(0, 1), (0, 4), (1, 2), (1, 4), (1, 5), (1, 6), (2, 6), (3, 5), (4, 5)],
    {0, 2, 3, 4},
    {0: 1, 2: 1, 3: 1},
)


def test_max_st_examples(detect_every_survivor):
    assert solve_max_st(toy1(), PARAMS).optimum == 2
    assert solve_max_st(toy2(), PARAMS).optimum == 1
    none_fac = make_instance(2, [(0, 1)], set(), {0: 1})
    assert solve_max_st(none_fac, PARAMS).optimum == 0
    # NO sub-decisions at the optimum's own size do not count toward the
    # bound: a size-3 subset runs a detection before the YES, yet the bound is
    # the one size-4 decision's
    inst = MAX_ST_NO_BEFORE_YES
    rep = solve_max_st(inst, SolveParams())
    assert rep.optimum == 3
    assert 0 < rep.failure_bound == solve_st(inst, SolveParams()).failure_bound < 1e-3
    # on this DAG the onto-F pin decides the size-4 NO with no detection
    inst = make_instance(5, [(0, 1), (0, 4), (2, 4), (3, 0)], {0, 1, 2, 3}, {2: 1, 3: 1, 4: 1})
    rep = solve_max_st(inst, SolveParams())
    assert rep.optimum == 3
    full = solve_st(inst, SolveParams())
    assert full.detections_run == 0 and rep.failure_bound == full.failure_bound == 0.0
    # the cycle 2-4 contracts; the size-4 decision then needs no detection
    inst = make_instance(5, [(0, 1), (2, 3), (2, 4), (4, 0), (4, 2)], {0, 2, 3, 4}, {1: 1, 3: 1, 4: 1})
    rep = solve_max_st(inst, SolveParams())
    assert rep.optimum == 3
    assert rep.failure_bound == 0.0


def test_max_st_bound_after_many_no_sub_decisions(detect_every_survivor):
    """Each NO sub-decision adds only 2*eta_max/2^64, so many of them stay
    far below 1e-3."""
    # five NO sub-decisions of this DAG, the 36th of ``_restricted_dags``,
    # pass the base-reachability precheck and run detections
    inst = make_instance(
        13,
        [(0, 1), (0, 3), (0, 4), (0, 7), (0, 8), (0, 10), (1, 8), (1, 12), (2, 6), (2, 9),
         (2, 11), (3, 4), (3, 5), (4, 6), (4, 8), (4, 9), (4, 10), (5, 8), (5, 9), (5, 12),
         (6, 9), (6, 10), (6, 11), (7, 10), (7, 11), (9, 10), (9, 11), (10, 11), (11, 12)],
        {0, 5, 6, 7, 9, 11},
        {0: 1, 9: 2},
    )
    rep = solve_max_st(inst, SolveParams())
    assert rep.optimum == 4
    assert rep.detections_run > 1
    assert 0 < rep.failure_bound < 1e-3
    # st-no[4]'s NO sub-decisions pass the precheck, and the onto-F pin
    # decides them: only the YES subset runs a detection
    rep = solve_max_st(_catalogue("st-no")[4], SolveParams())
    assert rep.optimum == 2
    assert rep.detections_run == 1 and rep.failure_bound == 0.0


def test_bounds_cover_the_detections_that_could_change_the_answer(monkeypatch, detect_every_survivor):
    """Each st, stu and min-st bound is at least the miss bound of every NO
    detection its answer rests on, at the largest order those detections
    tested: one for a NO, each NO detection for a min-st optimum."""
    from test_pinned_reports import BOUND_CASES

    from snowteam import solvers

    runs = []
    real = solvers.detect_zt_multilinear

    def spy(circuit, t, k, seed):
        found = real(circuit, t=t, k=k, seed=seed)
        runs.append((k, found))
        return found

    monkeypatch.setattr(solvers, "detect_zt_multilinear", spy)
    solves = {
        "st": solve_st,
        "min-st": solve_min_st,
        "stu-k1": lambda inst, p: solve_stu(inst, 1, p),
        "stu-k2": lambda inst, p: solve_stu(inst, 2, p),
    }
    insts = [*DETECTED_NOS, MAX_ST_NO_BEFORE_YES, *(make_instance(*c) for c in BOUND_CASES)]
    checked = 0
    for inst in insts + [gen_fig3(5), gen_fig3(7)]:
        for name, solve in solves.items():
            runs.clear()
            rep = solve(inst, PARAMS)
            nos = [k for k, found in runs if not found]
            if not nos or (rep.answer and name != "min-st"):
                continue
            relevant = len(nos) if rep.answer else 1
            assert rep.failure_bound >= relevant * _miss(max(nos)), (name, inst)
            checked += 1
    assert checked >= 15


def test_default_single_trial_matches_oracle(monkeypatch):
    """One trial per detection, the default, answers every instance right,
    and NO answers that ran detections carry the proven bound.  With the
    survivor search, every answer is the same and every NO is certain."""
    rng = random.Random(0)
    insts = []
    while len(insts) < 100:
        n = rng.randint(4, 6)
        inst = gen_random(n, rng.randint(n - 1, n + 2), 0.5, rng.randrange(10**6), rng.randint(2, 3))
        if len(inst.facilities() | inst.bases()) > 4:
            continue
        insts.append(inst)
    # none of these small random NOs reaches a detection (the
    # base-reachability precheck or the filter decides them), and since the
    # onto-F pin neither do the catalogue's st-no classes; DETECTED_NOS do
    insts += _catalogue("st-no") + list(DETECTED_NOS)
    want = [solve_st_exact(inst)[0] for inst in insts]
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 0)
    no_with_detections = 0
    for checked, inst in enumerate(insts):
        rep = solve_st(inst, SolveParams(seed=checked))
        assert rep.answer == want[checked], inst
        if not rep.answer and rep.detections_run:
            assert 0 < rep.failure_bound <= 2 * 7 / 2**64
            no_with_detections += 1
    assert no_with_detections >= len(DETECTED_NOS)
    monkeypatch.undo()
    for checked, inst in enumerate(insts):
        rep = solve_st(inst, SolveParams(seed=checked))
        assert rep.answer == want[checked], inst
        assert rep.detections_run == 0 and rep.failure_bound == 0.0, inst


def _restricted_dags(count, seed=2026, sizes=(11, 13), facilities=(5, 6)):
    """count seeded restricted DAGs that pass the base-reachability precheck:
    sizes[0]-sizes[1] vertices, each arc u -> v with u < v present with
    probability 0.3, facilities[0]-facilities[1] facilities and 3 ploughs,
    each on a facility drawn at random."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(*sizes)
        arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        fac = rng.sample(range(n), rng.randint(*facilities))
        ploughs = {}
        for _ in range(3):
            v = rng.choice(fac)
            ploughs[v] = ploughs.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, ploughs)
        if _base_reach_connects_facilities(inst):
            count -= 1
            yield inst


def test_pipeline_matches_oracle_on_restricted_dags(monkeypatch):
    """The onto-F pin keeps every answer on larger hosts, and leaves NOs
    whose candidates of more than |F| vertices reach a detection.  Their
    bound is set by the normal-form cap of the 3 ploughs.  With the survivor
    search, every answer is the same and every NO is certain."""
    insts = list(_restricted_dags(300))
    want = [solve_st_exact(inst)[0] for inst in insts]
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 0)
    no_with_detections = 0
    for i, inst in enumerate(insts):
        rep = solve_all_st(inst, SolveParams(seed=i))
        assert rep.answer == want[i], inst
        if not rep.answer and rep.detections_run:
            f, kb = len(inst.facilities()), inst.total_ploughs()
            assert rep.failure_bound == 2 * min(2 * f - 1, f + kb - 1, inst.n) / 2**64
            no_with_detections += 1
    assert no_with_detections >= 10
    monkeypatch.undo()
    for i, inst in enumerate(insts):
        rep = solve_all_st(inst, SolveParams(seed=i))
        assert rep.answer == want[i], inst
        assert rep.detections_run == 0 and rep.failure_bound == 0.0, inst


def test_the_plough_budget_reaches_ten_facilities(monkeypatch):
    # the normal form needs trees of order at most 10 + 3 - 1 = 12, not
    # 2*10 - 1 = 19 > MAX_ORDER.  The third such draw is a NO after 8
    # detections, and the exact engine agrees; the survivor search decides
    # the same 8 candidates with certainty
    inst = list(_restricted_dags(3, seed=10, sizes=(17, 21), facilities=(10, 10)))[-1]
    assert len(inst.facilities()) == 10 and inst.total_ploughs() == 3 and inst.n == 19
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 0)
    start = time.perf_counter()
    rep = solve_all_st(inst, PARAMS)
    assert time.perf_counter() - start < 2.0
    assert not rep.answer and not solve_st_exact(inst)[0]
    assert rep.detections_run == 8 and rep.failure_bound == 2 * 12 / 2**64
    monkeypatch.undo()
    searched = solve_all_st(inst, PARAMS)
    assert not searched.answer and searched.candidates_tested == rep.candidates_tested
    assert searched.detections_run == 0 and searched.failure_bound == 0.0


def test_the_search_agrees_with_the_detection_on_every_survivor(monkeypatch):
    """Every candidate that passes the filter on the corpus of
    ``_corpus_reports`` (cycles allowed) and on the 300 restricted DAGs is
    decided by the survivor search within its budget, the same way as by a
    detection, and every embedding it returns is one: injective, inside the
    placements, every tree arc a host arc, every demand paid and every
    facility covered."""
    from test_tpe import _is_embedding

    from snowteam import solvers

    real_filter, real = solvers._candidate_feasible, solvers.embed
    pins = []
    tally = {False: 0, True: 0}

    def filtered(host, cand, fac, pin, onto):
        pins.append((pin, onto))
        return real_filter(host, cand, fac, pin, onto)

    def both(host, cand, fac, dom):
        pin, onto = pins[-1]
        assert dom == tpe.placements(host, cand, pin, onto)
        got = real(host, cand, fac, dom)
        assert got is not None, (host, cand)
        circuit = tpe.build_circuit(host, cand, fac, pin, onto)
        assert bool(got) == tpe.detect_zt_multilinear(circuit, len(fac), cand.order, seed=1)
        if got:
            assert _is_embedding(host, cand, fac, dom, got)
        tally[bool(got)] += 1
        return got

    monkeypatch.setattr(solvers, "_candidate_feasible", filtered)
    monkeypatch.setattr(solvers, "embed", both)
    for rep in _corpus_reports():
        assert rep.detections_run == 0
    for inst in _restricted_dags(300):
        assert solve_all_st(inst, PARAMS).detections_run == 0
    assert tally[True] + tally[False] >= 500 and tally[False] >= 50, tally


def test_a_spent_search_budget_falls_back_to_one_detection(monkeypatch):
    # toy1's one candidate, 0 -> 2 on the closure, takes two placements, and
    # DETECTED_NOS[1]'s one survivor more than one: with budget 1 the search
    # gives up on each, and one detection decides it instead
    for inst in (toy1(), DETECTED_NOS[1]):
        searched = solve_all_st(inst, PARAMS)
        monkeypatch.setattr(tpe, "SEARCH_BUDGET", 1)
        spent = solve_all_st(inst, PARAMS)
        monkeypatch.undo()
        assert (spent.answer, spent.candidates_tested) == (searched.answer, searched.candidates_tested)
        assert spent.detections_run == searched.detections_run + 1
        assert searched.failure_bound == 0.0
        assert (spent.failure_bound > 0) == (not spent.answer)


def test_min_st_bound_counts_the_detections_that_found_nothing(monkeypatch):
    """min-st's bound is the miss bound of the call's cap times its
    detections that found nothing (one at most for an infeasible answer),
    however its hits were found.  With budget 0 a detection decides every
    survivor.  With budget 8 on the 59th restricted DAG the search finds the
    hit, while a NO survivor still falls back to a detection: subtracting
    the hits from the detections would leave it no bound."""
    from test_pinned_reports import BOUND_CASES

    from snowteam import solvers

    runs = []
    real_embed, real_detect = solvers.embed, solvers.detect_zt_multilinear

    def search(*args):
        got = real_embed(*args)
        runs.append(("search", bool(got)))
        return got

    def detect(circuit, t, k, seed):
        got = real_detect(circuit, t=t, k=k, seed=seed)
        runs.append(("detect", got))
        return got

    monkeypatch.setattr(solvers, "embed", search)
    monkeypatch.setattr(solvers, "detect_zt_multilinear", detect)
    dag = list(_restricted_dags(59))[-1]
    cases = [make_instance(*c) for c in BOUND_CASES] + [gen_fig3(5), MAX_ST_NO_BEFORE_YES, dag]
    bounded = 0
    for budget, inst in [(0, inst) for inst in cases] + [(8, dag)]:
        monkeypatch.setattr(tpe, "SEARCH_BUDGET", budget)
        runs.clear()
        rep = solve_min_st(inst, PARAMS)
        nos = runs.count(("detect", False))
        relevant = nos if rep.answer else min(nos, 1)
        host, _ = solvers._settled(inst)
        cap = solvers._promotions_cap(host) if host is not None else 0
        assert rep.failure_bound == relevant * _miss(cap), (budget, inst)
        bounded += rep.answer and nos > 0
    assert ("search", True) in runs and runs.count(("detect", False)) == 1
    assert rep.answer and rep.failure_bound > 0
    assert bounded >= 2


def test_onto_pin_rejects_the_catalogue_st_no_detections(monkeypatch):
    """Each catalogue st-no class once left one candidate on exactly |F|
    vertices to a detection; confined to F, every one fails the filter, so
    the NOs are certain."""
    from snowteam import solvers

    real = solvers._candidate_feasible
    rejected = []

    def spy(host, cand, terminals, pin=None, onto=None):
        got = real(host, cand, terminals, pin, onto)
        if real(host, cand, terminals, pin):
            assert onto is not None and cand.order == len(terminals) and not got
            rejected.append(cand)
        return got

    monkeypatch.setattr(solvers, "_candidate_feasible", spy)
    for inst in _catalogue("st-no"):
        assert not solve_st_exact(inst)[0]
        for solve in (solve_st, solve_all_st):
            rep = solve(inst, PARAMS)
            assert not rep.answer
            assert rep.detections_run == 0 and rep.failure_bound == 0.0
    assert len(rejected) == 2 * 4  # four candidates, each under both solves


def test_stu_examples():
    assert solve_stu(gen_fig3(5), 4, PARAMS).answer
    assert not solve_stu(gen_fig3(5), 3, PARAMS).answer
    single = make_instance(3, [(0, 1)], {1}, {})
    assert solve_stu(single, 0, PARAMS).answer


def test_stu_matches_exact_on_randoms():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, min(8, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(0, min(3, n))))
        inst = make_instance(n, arcs, fac, {})
        for k in (0, 1, 2):
            want = solve_variant_exact(inst, "stu", k=k)
            got = solve_stu(inst, k, SolveParams(seed=5))
            assert got.answer == want, (inst, k)


def test_stu_all_facilities_matches_exact():
    """Every vertex a facility: the agent-clearing-tree special case."""
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(1, len(pairs)))
        inst = make_instance(n, arcs, set(range(n)), {})
        for k in (1, 2, 3):
            want = solve_variant_exact(inst, "stu", k=k)
            got = solve_stu(inst, k, SolveParams(seed=11))
            assert got.answer == want, (inst, k)


def test_stu_matches_exact_at_the_bfs_limits():
    # n 7-8, 9-14 arcs with cycles allowed, 2-5 facilities and k 1-4: the
    # largest stu instances the exact oracle takes
    rng = random.Random(2027)
    no = 0
    for i in range(60):
        n = rng.randint(7, 8)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(9, 14))
        fac = set(rng.sample(range(n), k=rng.randint(2, 5)))
        k = rng.randint(1, 4)
        inst = make_instance(n, arcs, fac, {})
        want = solve_variant_exact(inst, "stu", k=k)
        assert solve_stu(inst, k, SolveParams(seed=i)).answer == want, (inst, k)
        no += not want
    assert no >= 10


def test_pipeline_agrees_with_oracle_on_randoms():
    rng = random.Random(17)
    yes = no = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, min(10, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(0, min(3, n))))
        pl = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(n)
            if pl.get(v, 0) < n - 1:
                pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        want, _ = solve_st_exact(inst)
        got = solve_st(inst, SolveParams(seed=23))
        assert got.answer == want, inst
        yes += want
        no += not want
    assert yes >= 10 and no >= 10


def _all_b_patterns(n, max_kb):
    yield {}
    for v in range(n):
        yield {v: 1}
    if max_kb >= 2:
        for v in range(n):
            for u in range(v, n):
                if u == v:
                    if n - 1 >= 2:
                        yield {v: 2}
                else:
                    yield {v: 1, u: 1}


def test_pipeline_vs_oracle_exhaustive_tiny():
    """Every instance on up to 3 vertices (arc sets, facility sets, plough
    patterns with at most two ploughs) agrees with the search oracle."""
    import itertools

    checked = 0
    for n in (2, 3):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for r in range(len(pairs) + 1):
            for arcs in itertools.combinations(pairs, r):
                for fsize in range(min(3, n) + 1):
                    for fac in itertools.combinations(range(n), fsize):
                        for pl in _all_b_patterns(n, 2):
                            inst = make_instance(n, arcs, set(fac), pl)
                            want, _ = solve_st_exact(inst)
                            got = solve_st(inst, SolveParams(seed=101))
                            assert got.answer == want, (arcs, fac, pl)
                            checked += 1
    assert checked > 3000


def test_pipeline_vs_oracle_sampled_order_four():
    rng = random.Random(43)
    for _ in range(300):
        n = 4
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, 6))
        fac = set(rng.sample(range(n), k=rng.randint(0, 3)))
        pl = {}
        for _ in range(rng.randint(0, 2)):
            v = rng.randrange(n)
            if pl.get(v, 0) < n - 1:
                pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        want, _ = solve_st_exact(inst)
        assert solve_st(inst, SolveParams(seed=47)).answer == want


def test_min_st_bounded_by_placed_ploughs():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(1, min(8, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(1, min(3, n))))
        pl = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            if pl.get(v, 0) < n - 1:
                pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        rep = solve_min_st(inst, SolveParams(seed=3))
        want = solve_variant_exact(inst, "min-st")
        assert rep.optimum == want, inst
        if rep.optimum is not None:
            assert rep.optimum <= inst.total_ploughs()


def test_min_max_st_match_exact_on_randoms():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(n - 1, min(12, len(pairs))))
        fac = set(rng.sample(range(n), k=3))
        pl = {v: rng.randint(1, 2) for v in rng.sample(range(n), k=2)}
        inst = make_instance(n, arcs, fac, pl)
        p = SolveParams(seed=13)
        assert solve_min_st(inst, p).optimum == solve_variant_exact(inst, "min-st"), inst
        assert solve_max_st(inst, p).optimum == solve_variant_exact(inst, "max-st"), inst


def test_pipeline_matches_oracles_on_cyclic_hosts():
    """Every variant solved on the condensation agrees with the exact engines
    on the uncontracted host, including the cases whose facilities all lie in
    one strongly connected component."""
    rng = random.Random(20261019)
    cases = collapsed = 0
    while cases < 300:
        n = rng.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(2, min(10, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(2, 3)))
        pl = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            pl[v] = min(pl.get(v, 0) + 1, n - 1)
        inst = make_instance(n, arcs, fac, pl)
        host = condense(inst)
        if host is inst:
            continue
        cases += 1
        collapsed += len(host.facilities()) <= 1
        p = SolveParams(seed=cases)
        assert solve_st(inst, p).answer == solve_st_exact(inst)[0], inst
        assert solve_min_st(inst, p).optimum == solve_variant_exact(inst, "min-st"), inst
        assert solve_max_st(inst, p).optimum == solve_variant_exact(inst, "max-st"), inst
        for k in (0, 1, 2):
            assert solve_stu(inst, k, p).answer == solve_variant_exact(inst, "stu", k=k), (inst, k)
    assert collapsed >= 50


def test_one_component_min_st_needs_one_plough():
    # facilities 1 and 2 share the cycle 1-2-3, which the plough at 0 reaches:
    # the condensation has one facility, yet some plough must move
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3), (3, 1)], {1, 2}, {0: 2})
    assert len(condense(inst).facilities()) == 1
    rep = solve_min_st(inst, PARAMS)
    assert rep.answer and rep.optimum == 1 == solve_variant_exact(inst, "min-st")
    assert rep.detections_run == 0 and rep.failure_bound == 0.0


def test_one_component_stu_needs_a_plough():
    inst = make_instance(3, [(0, 1), (1, 0), (1, 2)], {0, 1}, {})
    assert len(condense(inst).facilities()) == 1
    for k in (0, 1, 2):
        rep = solve_stu(inst, k, PARAMS)
        assert rep.answer == (k >= 1) == solve_variant_exact(inst, "stu", k=k)
        assert rep.detections_run == 0 and rep.failure_bound == 0.0


def test_max_st_monotone_under_arc_addition():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(3, 5)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        base_arcs = rng.sample(pairs, k=rng.randint(0, 5))
        extra = [p for p in pairs if p not in base_arcs]
        more_arcs = base_arcs + rng.sample(extra, k=min(2, len(extra)))
        fac = set(rng.sample(range(n), k=rng.randint(1, 3)))
        pl = {rng.choice(sorted(fac)): 1}
        small = make_instance(n, base_arcs, fac, pl)
        large = make_instance(n, more_arcs, fac, pl)
        p = SolveParams(seed=9)
        assert solve_max_st(large, p).optimum >= solve_max_st(small, p).optimum


def test_normalize_single_splice():
    inst = transitive_closure(make_instance(3, [(0, 1), (1, 2)], {0, 2}, {0: 1}))
    sol = walks_from_lists([[0, 1, 2]])
    out = normalize_to_tree_like(inst, sol)
    assert [w.vertices for w in out.walks] == [(0, 2)]


def test_normalize_fixpoint():
    inst = transitive_closure(make_instance(3, [(0, 1), (1, 2)], {0, 1, 2}, {0: 1}))
    sol = walks_from_lists([[0, 1, 2]])
    assert normalize_to_tree_like(inst, sol) == sol


def test_normalize_rejects_bad_inputs():
    not_closed = make_instance(3, [(0, 1), (1, 2)], {0, 2}, {0: 1})
    with pytest.raises(ValueError, match="closed"):
        normalize_to_tree_like(not_closed, walks_from_lists([[0, 1, 2]]))
    closed = transitive_closure(not_closed)
    with pytest.raises(ValueError, match="verify"):
        normalize_to_tree_like(closed, walks_from_lists([[0, 1]]))
    unrestricted = transitive_closure(make_instance(3, [(0, 1), (1, 2)], {2}, {0: 1}))
    with pytest.raises(ValueError, match="restricted"):
        normalize_to_tree_like(unrestricted, walks_from_lists([[0, 1, 2]]))


def test_normalize_shared_arc_resolved():
    inst = transitive_closure(
        make_instance(4, [(0, 1), (1, 2), (0, 3), (3, 1)], {0, 1, 2}, {0: 2})
    )
    # both walks traverse (1, 2); one of the duplicates must go
    sol = walks_from_lists([[0, 1, 2], [0, 3, 1, 2]])
    out = normalize_to_tree_like(inst, sol)
    assert is_tree_like(out)
    ok, reason = verify_st_solution(inst, out)
    assert ok, reason


def _random_restricted_instances(rng, count):
    """Restricted instances whose closure stays within the search limits."""
    made = 0
    while made < count:
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(1, min(8, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(1, min(3, n))))
        pl = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(sorted(fac))
            if pl.get(v, 0) < n - 1:
                pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        if len(transitive_closure(inst).arcs) > 14:
            continue
        made += 1
        yield inst


def test_normalize_on_oracle_witnesses():
    """Oracle witnesses, all already tree-like, and random verifying walk
    systems, which the normalization must rewrite at least sometimes."""
    rng = random.Random(29)
    walk_rng = random.Random(30)
    normalized = rewritten = 0
    for inst in _random_restricted_instances(rng, 80):
        closed = transitive_closure(inst)
        ans, witness = solve_st_exact(closed)
        if not ans:
            continue
        drawn = random_verifying_walks(walk_rng, closed)
        for sol in (witness,) if drawn is None else (witness, drawn):
            out = normalize_to_tree_like(closed, sol)
            ok, reason = verify_st_solution(closed, out)
            assert ok, reason
            assert is_tree_like(out)
            assert sorted(w.start for w in out.walks) == sorted(w.start for w in sol.walks)
            fac = closed.facilities()
            touched = {v for w in out.walks if w.length >= 1 for v in w.vertices}
            if len(fac) >= 2:
                assert len(touched) <= 2 * len(fac) - 1
            normalized += 1
            rewritten += out != sol
    assert normalized >= 100
    assert rewritten >= 20


@pytest.mark.parametrize(
    "walks",
    [
        [[0, 1, 2, 0]],  # a walk that revisits a vertex
        [[0, 1], [1, 0]],  # antiparallel arcs in two walks
        [[0, 1], [1, 2], [2, 0]],  # a triangle spread over three walks
        [[0, 1, 2], [3, 1, 2]],  # an arc used by two walks
    ],
)
def test_is_tree_like_rejects(walks):
    assert not is_tree_like(walks_from_lists(walks))


def _candidate_feasible_sets(host, cand, terminals):
    """Set-based arc-consistency filter: the oracle for the bitmask one."""
    eta = cand.order
    if eta > host.n or len(terminals) > eta:
        return False
    tout = [0] * eta
    tin = [0] * eta
    for u, v in cand.arcs:
        tout[u] += 1
        tin[v] += 1
    succ = [{x for u, x in host.arcs if u == w} for w in range(host.n)]
    pred = [{u for u, x in host.arcs if x == w} for w in range(host.n)]
    hout = [len(s) for s in succ]
    hin = [len(p) for p in pred]
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
            keep_a = {w for w in compat[a] if succ[w] & compat[b]}
            if len(keep_a) != len(compat[a]):
                compat[a] = keep_a
                changed = True
            keep_b = {w for w in compat[b] if pred[w] & compat[a]}
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


def test_bitmask_filter_matches_set_filter():
    """On closures, which the solvers pass, and on plain hosts, where arc
    consistency prunes more placements and empties more domains."""
    rng = random.Random(71)
    cands = list(candidate_stream(1, 6))
    outcomes = {(closed, ok): 0 for closed in (False, True) for ok in (False, True)}
    for _ in range(60):
        n = rng.randint(3, 9)
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.25}
        ploughs = [rng.choice((0, 0, 1, 2, n - 1)) for _ in range(n)]
        plain = make_instance(n, arcs, set(), ploughs)
        closure = transitive_closure(plain)
        for cand in cands:
            terminals = frozenset(rng.sample(range(n), rng.randint(1, min(n, 6))))
            for host in (plain, closure):
                got = _candidate_feasible(host, cand, terminals)
                want = _candidate_feasible_sets(host, cand, terminals)
                assert got == (tpe.placements(host, cand) if want else None), (host, cand, terminals)
                outcomes[host is closure, want] += 1
    assert min(outcomes.values()) >= 100, outcomes
