"""Exact engines: the two engines against each other, their limits, the
variant searches, and both engines' searches pinned to a committed file.

``pinned_exact_witnesses.json`` holds ``solve_st_exact``'s answer and witness
walks on the sample gadget at budgets 1-3 and on seeded random set-cover
gadgets at k = optimum and optimum - 1 (the acyclic engine), and on 40
seeded hosts within the BFS limits, cyclic and acyclic, some with stacked
ploughs (the breadth-first engine).  It also holds the BFS's move list for
10 seeded ``stu`` cases.  The branching order and the BFS's successor order
pick the witness, so a change meant to keep the searches must leave the
file alone; a change meant to alter an order regenerates it by

    PYTHONPATH=src python3 tests/test_exact.py --write
"""

import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from snowteam import exact
from snowteam.digraph import Instance, make_instance, parse_instance, verify_st_solution
from snowteam.exact import (
    LimitsExceeded,
    _bfs,
    _dag_st,
    _path_index,
    _positions,
    _replay_moves,
    _search,
    _sub_vectors,
    solve_st_exact,
    solve_variant_exact,
)
from snowteam.gadgets import SetCoverInstance, build_gadget, solve_set_cover_exact
from snowteam.selfcheck import SAMPLE_COVER

PINNED_WITNESSES = Path(__file__).resolve().parent / "pinned_exact_witnesses.json"


def bfs_walks(inst):
    """The BFS engine's witness for inst's ploughs, at their positions, or None."""
    starts = _positions(inst.ploughs)
    moves = _bfs(inst, starts, 0)
    return None if moves is None else _replay_moves(starts, moves)


def dag_walks(inst):
    """The acyclic engine's witness for inst's ploughs, at their positions, or None."""
    return _dag_st(inst, _positions(inst.ploughs), _path_index(inst))


def toy1():
    return make_instance(3, [(0, 1), (1, 2)], {0, 2}, {0: 1})


def toy2():
    return make_instance(3, [(1, 0), (1, 2)], {0, 2}, {0: 1})


def fig3(n):
    arcs = []
    for v in range(1, n, 2):
        arcs += [(v, v - 1), (v, v + 1)]
    return make_instance(n, arcs, {0, n - 1}, {v: 2 for v in range(1, n, 2)})


def test_toy1_yes_with_witness():
    ans, witness = solve_st_exact(toy1())
    assert ans
    ok, reason = verify_st_solution(toy1(), witness)
    assert ok, reason


def test_toy2_no():
    ans, witness = solve_st_exact(toy2())
    assert not ans and witness is None


def test_fig3_small_double_base():
    inst = fig3(3)
    ans, witness = solve_st_exact(inst)
    assert ans and len(witness.walks) == 2


def test_single_facility_trivial_yes():
    inst = make_instance(4, [(0, 1)], facilities={2}, ploughs={0: 1})
    ans, witness = solve_st_exact(inst)
    assert ans
    assert all(w.length == 0 for w in witness.walks)


def test_no_facilities_trivial_yes():
    inst = make_instance(3, [(0, 1)], facilities=set(), ploughs={})
    assert solve_st_exact(inst)[0]


def test_witnesses_verify_on_random_instances():
    rng = random.Random(4)
    yes = no = 0
    for _ in range(120):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, min(10, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(0, min(3, n))))
        kb = rng.randint(0, 3)
        pl = {}
        for _ in range(kb):
            v = rng.randrange(n)
            if pl.get(v, 0) < n - 1:
                pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        ans, witness = solve_st_exact(inst)
        if ans:
            yes += 1
            ok, reason = verify_st_solution(inst, witness)
            assert ok, reason
        else:
            no += 1
            assert witness is None
    assert yes >= 10 and no >= 10


def test_engines_agree_on_tiny_dags():
    rng = random.Random(9)
    agree = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        # sample a DAG: arcs only from lower to higher id through a permutation
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
        arcs = rng.sample(pairs, k=rng.randint(0, min(9, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(0, n)))
        kb = rng.randint(0, 3)
        pl = {}
        for _ in range(kb):
            v = rng.randrange(n)
            if pl.get(v, 0) < n - 1:
                pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        bfs_ans = bfs_walks(inst) is not None
        dag_wit = dag_walks(inst)
        dag_ans = dag_wit is not None
        assert bfs_ans == dag_ans, inst
        if dag_ans:
            ok, reason = verify_st_solution(inst, dag_wit)
            assert ok, reason
        agree += 1
    assert agree == 150


def test_engines_agree_at_the_bfs_limits():
    # n 7-8, at most 14 arcs and 4 ploughs: the largest instances the BFS
    # engine takes, with stacked ploughs, bases at sinks and spare vertices
    rng = random.Random(13)
    yes = stacked = sink_bases = 0
    for _ in range(400):
        n = rng.randint(7, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
        arcs = rng.sample(pairs, k=rng.randint(n - 1, 14))
        fac = set(rng.sample(range(n), k=rng.randint(2, 5)))
        pl: dict[int, int] = {}
        for _ in range(rng.randint(2, 4)):
            v = rng.choice(sorted(pl)) if pl and rng.random() < 0.4 else rng.randrange(n)
            pl[v] = pl.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, pl)
        assert inst.n <= exact.MAX_N and len(inst.arcs) <= exact.MAX_ARCS
        assert inst.total_ploughs() <= exact.MAX_KB
        bfs_wit, dag_wit = bfs_walks(inst), dag_walks(inst)
        bfs_ans, dag_ans = bfs_wit is not None, dag_wit is not None
        assert bfs_ans == dag_ans, inst
        if dag_ans:
            for witness in (bfs_wit, dag_wit):
                ok, reason = verify_st_solution(inst, witness)
                assert ok, reason
        yes += dag_ans
        stacked += max(pl.values()) > 1
        sink_bases += any(all(u != v for u, _ in inst.arcs) for v in pl)
    assert yes >= 50 and 400 - yes >= 50
    assert stacked >= 100 and sink_bases >= 100


def test_dag_path_joins_two_components():
    # The only paths through the facilities, 0-3 and 1-4, leave them split.
    # Both ploughs at 2 must then leave the component of 0 in turn: 2->3
    # joins it, and 2->4 carries it on to the component of 1.
    inst = make_instance(5, [(0, 3), (1, 4), (2, 3), (2, 4)], {0, 1}, {0: 1, 1: 1, 2: 2})
    assert bfs_walks(inst) is not None
    witness = dag_walks(inst)
    assert witness is not None
    ok, reason = verify_st_solution(inst, witness)
    assert ok, reason


def test_limits_refuse_large_cyclic():
    big_cycle = make_instance(
        12,
        [(v, (v + 1) % 12) for v in range(12)] + [(0, 2), (2, 4), (4, 6)],
        {0, 6},
        {0: 1, 2: 1, 4: 1, 6: 1, 8: 1},
    )
    with pytest.raises(LimitsExceeded):
        solve_st_exact(big_cycle)


def test_dag_engine_limits(monkeypatch):
    # the budget-1 sample gadget is a NO that fails some hundred states
    inst = build_gadget(SetCoverInstance(SAMPLE_COVER.n_items, SAMPLE_COVER.sets, 1)).instance
    assert dag_walks(inst) is None
    monkeypatch.setattr(exact, "MAX_DAG_STATES", 5)
    with pytest.raises(LimitsExceeded, match="memo budget"):
        dag_walks(inst)
    monkeypatch.setattr(exact, "MAX_DAG_CHOICES", 5)  # checked before any state
    with pytest.raises(LimitsExceeded, match="maximal paths"):
        dag_walks(inst)


def test_min_st_examples():
    assert solve_variant_exact(fig3(3), "min-st") == 2
    assert solve_variant_exact(fig3(5), "min-st") == 4
    assert solve_variant_exact(toy1(), "min-st") == 1
    assert solve_variant_exact(toy2(), "min-st") is None
    single = make_instance(3, [(0, 1)], facilities={1}, ploughs={0: 1})
    assert solve_variant_exact(single, "min-st") == 0


def test_min_st_no_on_the_full_vector_ends_the_search(monkeypatch):
    # facilities 0 and 5 touch no arc: the full plough vector answers NO, so
    # none of its 125 sub-vectors is searched
    calls = []
    real = exact._search

    def spy(inst, ploughs, paths):
        calls.append(ploughs)
        return real(inst, ploughs, paths)

    monkeypatch.setattr(exact, "_search", spy)
    inst = make_instance(6, [(1, 2)], {0, 5}, {1: 4, 2: 4, 3: 4})
    assert solve_variant_exact(inst, "min-st") is None
    assert calls == [inst.ploughs]
    # the full vector (k_B = 5 on a cyclic host) is beyond the exact limits,
    # its sub-vectors are not
    cyclic = make_instance(6, [(0, 1), (1, 0), (1, 2)], {0, 2}, {0: 5})
    with pytest.raises(LimitsExceeded):
        real(cyclic, cyclic.ploughs, None)
    assert solve_variant_exact(cyclic, "min-st") == 1


def test_min_st_searches_plough_totals_upwards(monkeypatch):
    # 43 ploughs, 8**6 * 2 sub-vectors; the single plough at facility 0
    # already answers YES, so the search stops at total 1
    calls = []
    real = exact._search

    def spy(inst, ploughs, paths):
        calls.append(ploughs)
        return real(inst, ploughs, paths)

    monkeypatch.setattr(exact, "_search", spy)
    inst = make_instance(8, [(0, 7), (1, 2)], {0, 7}, {0: 1, **{v: 7 for v in range(1, 7)}})
    assert solve_variant_exact(inst, "min-st") == 1
    assert len(calls) <= 9


def test_variant_searches_share_one_path_index(monkeypatch):
    # n = 9 is past the BFS engine's limits: every search is acyclic, and
    # each base's maximal paths are built once per call, not per search
    built, indexes = [], []
    real_paths, real_search = exact._maximal_paths, exact._search

    def paths_spy(succ, start, cap):
        built.append(start)
        return real_paths(succ, start, cap)

    def search_spy(inst, ploughs, paths):
        indexes.append(paths)
        return real_search(inst, ploughs, paths)

    monkeypatch.setattr(exact, "_maximal_paths", paths_spy)
    monkeypatch.setattr(exact, "_search", search_spy)
    zigzag = fig3(9)
    assert solve_variant_exact(zigzag, "min-st") == 8
    assert sorted(built) == [1, 3, 5, 7]
    assert indexes[0] is not None and all(p is indexes[0] for p in indexes)
    built.clear()
    indexes.clear()
    # no plough at 7 reaches facility 8: subsets of sizes 4 and 3 are searched
    wider = replace(
        zigzag,
        facility=tuple(v in {0, 2, 4, 8} for v in range(9)),
        ploughs=(0, 2, 0, 2, 0, 2, 0, 0, 0),
    )
    assert solve_variant_exact(wider, "max-st") == 3
    assert sorted(built) == [1, 3, 5] and len(indexes) == 2
    assert indexes[0] is not None and indexes[1] is indexes[0]


def test_min_st_builds_no_instance_per_search(monkeypatch):
    # 8,192 sub-vectors of the budget-2 sample gadget are searched on the
    # one host; only the YES that ends the search builds an instance
    inst = build_gadget(SetCoverInstance(SAMPLE_COVER.n_items, SAMPLE_COVER.sets, 2)).instance
    built = []
    real_init = Instance.__post_init__

    def counting_init(self):
        built.append(self.ploughs)
        real_init(self)

    monkeypatch.setattr(Instance, "__post_init__", counting_init)
    assert solve_st_exact(inst)[0]
    assert built == []
    assert solve_variant_exact(inst, "min-st") == 13
    assert len(built) <= 2


def _sub_vector_hosts():
    """(name, instance): seeded st hosts whose every plough sub-vector is
    searched.  Twenty-four within the BFS limits with 2-4 ploughs, every odd
    one acyclic; eight acyclic past them, four on 9-10 vertices with 3-6
    ploughs and four with 5-6 ploughs (whose smaller sub-vectors fit the
    BFS); and six with 5 ploughs and a 2-cycle, whose sub-vectors of total 5
    are refused."""
    rng = random.Random(20261023)
    for i in range(38):
        acyclic = i % 2 if i < 24 else i < 32
        n = rng.randint(9, 10) if 24 <= i < 28 else rng.randint(5, 8)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        if acyclic:
            perm = list(range(n))
            rng.shuffle(perm)
            pairs = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)]
        arcs = rng.sample(pairs, k=rng.randint(n, min(13, len(pairs))))
        if not acyclic:
            arcs.append(arcs[0][::-1])
        fac = set(rng.sample(range(n), k=rng.randint(2, 3)))
        kb = rng.randint(*(2, 4) if i < 24 else (3, 6) if i < 28 else (5, 6) if i < 32 else (5, 5))
        pl: dict[int, int] = {}
        while sum(pl.values()) < kb:
            v = rng.choice(sorted(pl)) if pl and rng.random() < 0.4 else rng.randrange(n)
            pl[v] = min(pl.get(v, 0) + 1, n - 1)
        yield f"sub{i}", make_instance(n, arcs, fac, pl)


def _answer_record(search):
    """[answer, witness walks as vertex lists, or None] of search(), or
    "limits" when it raises LimitsExceeded."""
    try:
        ans, witness = search()
    except LimitsExceeded:
        return "limits"
    return [ans, None if witness is None else [list(w.vertices) for w in witness.walks]]


# sha256 of the JSON list of the records, as solve_st_exact gave them on one
# instance built per sub-vector, before the engines took plough vectors
SUB_VECTOR_RECORDS_SHA256 = "03002329004a3acb30083ecf570dfeec1603aeb6c73e4b9e59ce49215aaf797f"


def test_searches_on_one_host_match_rebuilt_instances():
    records, kinds = [], set()
    for name, inst in _sub_vector_hosts():
        paths = _path_index(inst)
        kinds.add((paths is not None, inst.n <= exact.MAX_N, inst.total_ploughs() <= exact.MAX_KB))
        for v in itertools.product(*(range(c + 1) for c in inst.ploughs)):
            want = _answer_record(lambda: solve_st_exact(replace(inst, ploughs=v)))
            assert _answer_record(lambda: _search(inst, v, paths)) == want, (name, v)
            records.append(want)
    # (acyclic, n within MAX_N, k_B within MAX_KB): all but cyclic on too many vertices
    assert len(kinds) == 6
    assert records.count("limits") == 6
    answers = [r[0] for r in records if r != "limits"]
    assert answers.count(True) >= 60 and answers.count(False) >= 200
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SUB_VECTOR_RECORDS_SHA256


def test_sub_vectors_are_the_capped_vectors_of_each_total():
    rng = random.Random(5)
    for _ in range(40):
        caps = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(rng.randint(1, 6)))
        for total in range(sum(caps) + 1):
            got = list(_sub_vectors(caps, total))
            want = [c for c in itertools.product(*(range(b + 1) for b in caps)) if sum(c) == total]
            assert sorted(got) == want


def _recursive_sub_vectors(caps, total):
    """The recursive enumeration ``_sub_vectors`` replaced, kept as the
    reference for its order: the first nonzero cap's entry ascending, then
    the rest the same way."""
    if total == 0:
        yield (0,) * len(caps)
        return
    v = next(i for i, c in enumerate(caps) if c)
    for c in range(max(0, total - sum(caps[v + 1 :])), min(caps[v], total) + 1):
        for tail in _recursive_sub_vectors(caps[v + 1 :], total - c):
            yield caps[:v] + (c,) + tail


def test_sub_vectors_come_in_the_recursive_order():
    rng = random.Random(29)
    # the budget-2 sample gadget: 52 caps summing to 13, 8,192 vectors in all
    gadget = build_gadget(SetCoverInstance(SAMPLE_COVER.n_items, SAMPLE_COVER.sets, 2))
    cases = [(), (0, 0), (3,), (0, 2, 0, 1), gadget.instance.ploughs]
    cases += [tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(rng.randint(1, 8))) for _ in range(30)]
    for caps in cases:
        for total in range(sum(caps) + 1):
            got = list(_sub_vectors(caps, total))
            assert got == list(_recursive_sub_vectors(caps, total)), (caps, total)
        assert list(_sub_vectors(caps, sum(caps) + 1)) == []


def test_max_st_examples():
    assert solve_variant_exact(toy1(), "max-st") == 2
    assert solve_variant_exact(toy2(), "max-st") == 1
    empty = make_instance(2, [(0, 1)], facilities=set(), ploughs={0: 1})
    assert solve_variant_exact(empty, "max-st") == 0


def test_stu_examples():
    assert solve_variant_exact(fig3(5), "stu", k=4)
    assert not solve_variant_exact(fig3(5), "stu", k=3)
    single = make_instance(3, [(0, 1)], facilities={2}, ploughs={})
    assert solve_variant_exact(single, "stu", k=0)
    with pytest.raises(ValueError):
        solve_variant_exact(toy1(), "stu")


def test_stu_placement_is_free():
    # no ploughs pre-placed, two facilities joined by one walk of length 1
    inst = make_instance(2, [(0, 1)], facilities={0, 1}, ploughs={})
    assert solve_variant_exact(inst, "stu", k=1)
    assert not solve_variant_exact(inst, "stu", k=0)


def _pinned_gadgets():
    """(name, set cover): the sample cover at budgets 1-3, then four seeded
    random systems at k = optimum and optimum - 1 (when positive)."""
    for k in (1, 2, 3):
        yield f"sample k{k}", SetCoverInstance(SAMPLE_COVER.n_items, SAMPLE_COVER.sets, k)
    rng = random.Random(20261020)
    for i in range(4):
        n = rng.randint(4, 6)
        universe = set(range(1, n + 1))
        while True:
            sets = tuple(
                tuple(sorted(rng.sample(sorted(universe), rng.randint(1, 3))))
                for _ in range(rng.randint(4, 5))
            )
            if set().union(*sets) == universe:
                break
        opt = next(
            k for k in range(1, len(sets) + 1)
            if solve_set_cover_exact(SetCoverInstance(n, sets, k)) is not None
        )
        for k in (opt, opt - 1):
            if k:
                yield f"random{i} k{k}", SetCoverInstance(n, sets, k)


def _pinned_bfs_hosts():
    """(name, instance): 40 seeded st hosts within the BFS limits, every odd
    one acyclic, with 2-3 facilities and 2-4 ploughs, often stacked."""
    rng = random.Random(20261021)
    for i in range(40):
        n = rng.randint(5, 8)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        if i % 2:
            perm = list(range(n))
            rng.shuffle(perm)
            pairs = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)]
        arcs = rng.sample(pairs, k=rng.randint(n, min(13, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(2, 3)))
        pl: dict[int, int] = {}
        for _ in range(rng.randint(2, 4)):
            v = rng.choice(sorted(pl)) if pl and rng.random() < 0.4 else rng.randrange(n)
            pl[v] = pl.get(v, 0) + 1
        yield f"bfs{i}", make_instance(n, arcs, fac, pl)


def _pinned_stu_hosts():
    """(name, instance, k): 10 seeded stu cases, n 5-7 and k 1-4."""
    rng = random.Random(20261022)
    for i in range(10):
        n = rng.randint(5, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(n, min(11, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(2, 4)))
        k = rng.randint(1, 4)
        yield f"stu{i} k{k}", make_instance(n, arcs, fac, {}), k


def _exact_records() -> dict:
    """name -> [answer, witness walks as vertex lists, or None] for st, and
    [answer, the BFS's moves as [tail or None, head] pairs, or None] for stu."""
    out = {}
    hosts = [(name, build_gadget(sc).instance) for name, sc in _pinned_gadgets()]
    for name, inst in hosts + list(_pinned_bfs_hosts()):
        ans, witness = solve_st_exact(inst)
        walks = None if witness is None else [list(w.vertices) for w in witness.walks]
        out[name] = [ans, walks]
    for name, inst, k in _pinned_stu_hosts():
        assert inst.n <= exact.MAX_N and len(inst.arcs) <= exact.MAX_ARCS and k <= exact.MAX_KB
        moves = exact._bfs(inst, (), k)
        out[name] = [moves is not None, None if moves is None else [list(m) for m in moves]]
    return out


def test_exact_search_matches_the_pinned_witnesses():
    pinned = json.loads(PINNED_WITNESSES.read_text())
    got = _exact_records()
    assert sorted(got) == sorted(pinned)
    for name in pinned:
        assert got[name] == pinned[name], name
    answers = [ans for ans, _ in pinned.values()]
    assert answers.count(True) >= 25 and answers.count(False) >= 25


def test_dag_memo_size_of_the_budget1_sample_gadget(monkeypatch):
    # the budget-1 sample gadget is a NO that fails exactly 167 memo states
    inst = build_gadget(SetCoverInstance(SAMPLE_COVER.n_items, SAMPLE_COVER.sets, 1)).instance
    monkeypatch.setattr(exact, "MAX_DAG_STATES", 166)
    with pytest.raises(LimitsExceeded, match="memo budget"):
        dag_walks(inst)
    monkeypatch.setattr(exact, "MAX_DAG_STATES", 167)
    assert dag_walks(inst) is None


def test_bfs_state_count_of_an_exhausted_no(monkeypatch):
    # a NO that passes the base-reachability precheck: facilities 2, 4, 6 and
    # 7 lie in one weak component of what the bases reach.  The BFS exhausts
    # exactly 794 (positions, unplaced, components) states, where 18,780
    # (positions, unplaced, cleared arcs) states exist
    inst = parse_instance(
        "st 8 13\n"
        "v 0 0 2\nv 1 0 0\nv 2 1 0\nv 3 0 0\nv 4 1 0\nv 5 0 1\nv 6 1 0\nv 7 1 1\n"
        "a 0 2\na 0 3\na 1 4\na 2 0\na 3 0\na 3 1\na 3 2\n"
        "a 4 0\na 4 1\na 4 2\na 5 4\na 7 5\na 7 6\n"
    )
    monkeypatch.setattr(exact, "MAX_BFS_STATES", 793)
    with pytest.raises(LimitsExceeded, match="BFS state budget"):
        solve_st_exact(inst)
    monkeypatch.setattr(exact, "MAX_BFS_STATES", 794)
    assert solve_st_exact(inst) == (False, None)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    records = _exact_records()
    rows = [f"{json.dumps(name)}: {json.dumps(record)}" for name, record in records.items()]
    PINNED_WITNESSES.write_text("{\n" + ",\n".join(rows) + "\n}\n")
