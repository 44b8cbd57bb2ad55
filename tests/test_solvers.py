import random

import pytest

from snowteam.digraph import make_instance, transitive_closure, verify_st_solution, walks_from_lists
from snowteam.exact import solve_st_exact, solve_variant_exact
from snowteam.gadgets import gen_fig3
from snowteam.solvers import (
    SolveParams,
    is_tree_like,
    normalize_to_tree_like,
    solve_all_st,
    solve_max_st,
    solve_min_st,
    solve_st,
    solve_stu,
)

PARAMS = SolveParams(seed=7, trials=48)


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


def test_all_st_no_after_real_detections():
    # candidates pass the feasibility filters yet nothing embeds (certified by
    # the exact oracle), so the NO answer rests on detections and carries a
    # nonzero failure bound
    inst = make_instance(
        6, [(0, 3), (1, 5), (3, 0), (4, 0), (4, 5), (5, 1)], {3, 4, 5}, {4: 1}
    )
    assert not solve_st_exact(inst)[0]
    rep = solve_all_st(inst, PARAMS)
    assert not rep.answer
    assert rep.detections_run >= 1
    assert 0 < rep.failure_bound < 1e-3


def test_all_st_requires_restricted_input():
    unrestricted = make_instance(3, [(0, 1), (1, 2)], {2}, {0: 1})
    with pytest.raises(ValueError, match="restricted"):
        solve_all_st(unrestricted, PARAMS)


def test_all_st_no_detections_is_certain():
    split = make_instance(4, [(0, 1), (2, 3)], {0, 3}, {0: 1, 3: 1})
    # facilities in different weak components: certain NO without detections
    rep = solve_all_st(split, PARAMS)
    assert not rep.answer and rep.detections_run == 0 and rep.failure_bound == 0.0


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


def test_solve_st_parallel_jobs_agree():
    # YES at the first of two promotions: the second one's detection must
    # not be counted, however many workers run
    two_promotions = make_instance(5, [(0, 1), (1, 2), (3, 4), (4, 2), (3, 0)], {0, 2}, {0: 1, 3: 1})
    for inst in (toy1(), two_promotions):
        a = solve_st(inst, PARAMS)
        b = solve_st(inst, SolveParams(seed=7, trials=48, jobs=2))
        assert (a.answer, a.candidates_tested, a.detections_run, a.failure_bound) == (
            b.answer,
            b.candidates_tested,
            b.detections_run,
            b.failure_bound,
        )


def test_min_st_examples():
    assert solve_min_st(toy1(), PARAMS).optimum == 1
    rep = solve_min_st(gen_fig3(5), PARAMS)
    assert rep.answer and rep.optimum == 4
    single = make_instance(2, [(0, 1)], {1}, {0: 1})
    assert solve_min_st(single, PARAMS).optimum == 0
    infeasible = solve_min_st(toy2(), PARAMS)
    assert not infeasible.answer and infeasible.optimum is None


def test_max_st_examples():
    assert solve_max_st(toy1(), PARAMS).optimum == 2
    assert solve_max_st(toy2(), PARAMS).optimum == 1
    none_fac = make_instance(2, [(0, 1)], set(), {0: 1})
    assert solve_max_st(none_fac, PARAMS).optimum == 0
    # NO sub-decisions at the optimum's own size do not count toward the bound
    inst = make_instance(5, [(0, 1), (2, 3), (2, 4), (4, 0), (4, 2)], {0, 2, 3, 4}, {1: 1, 3: 1, 4: 1})
    rep = solve_max_st(inst, SolveParams())
    assert rep.optimum == 3
    assert 0 < rep.failure_bound < 1e-3


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
            got = solve_stu(inst, k, SolveParams(seed=5, trials=64))
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
            got = solve_stu(inst, k, SolveParams(seed=11, trials=64))
            assert got.answer == want, (inst, k)


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
        got = solve_st(inst, SolveParams(seed=23, trials=64))
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
                            got = solve_st(inst, SolveParams(seed=101, trials=32))
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
        assert solve_st(inst, SolveParams(seed=47, trials=32)).answer == want


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
        rep = solve_min_st(inst, SolveParams(seed=3, trials=48))
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
        p = SolveParams(seed=13, trials=48)
        assert solve_min_st(inst, p).optimum == solve_variant_exact(inst, "min-st"), inst
        assert solve_max_st(inst, p).optimum == solve_variant_exact(inst, "max-st"), inst


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
        p = SolveParams(seed=9, trials=48)
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
    rng = random.Random(29)
    normalized = 0
    for inst in _random_restricted_instances(rng, 80):
        closed = transitive_closure(inst)
        ans, witness = solve_st_exact(closed)
        if not ans:
            continue
        out = normalize_to_tree_like(closed, witness)
        ok, reason = verify_st_solution(closed, out)
        assert ok, reason
        assert is_tree_like(out)
        assert sorted(w.start for w in out.walks) == sorted(w.start for w in witness.walks)
        fac = closed.facilities()
        touched = {v for w in out.walks if w.length >= 1 for v in w.vertices}
        if len(fac) >= 2:
            assert len(touched) <= 2 * len(fac) - 1
        normalized += 1
    assert normalized >= 30
