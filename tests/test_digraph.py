import random
from dataclasses import replace

import pytest

from snowteam.digraph import (
    Instance,
    ParseError,
    bits,
    condense,
    facilities_connected,
    make_instance,
    parse_instance,
    parse_walks,
    reach,
    serialize_instance,
    serialize_walks,
    sources,
    transitive_closure,
    verify_st_solution,
    walk_is_valid,
    walks_from_lists,
    Walk,
)
from snowteam.exact import solve_st_exact

TOY1_TEXT = """\
st 3 2
v 0 1 1
v 1 0 0
v 2 1 0
a 0 1
a 1 2
"""


def toy1():
    return make_instance(3, [(0, 1), (1, 2)], facilities={0, 2}, ploughs={0: 1})


def toy2():
    return make_instance(3, [(1, 0), (1, 2)], facilities={0, 2}, ploughs={0: 1})


def test_parse_toy1():
    inst = parse_instance(TOY1_TEXT)
    assert inst == toy1()
    assert inst.facilities() == {0, 2}
    assert inst.bases() == {0}
    assert inst.total_ploughs() == 1


def test_parse_accepts_comments_and_blank_lines():
    text = "# comment\n\nst 3 2\nv 0 1 1\nv 1 0 0 # inline\nv 2 1 0\n\na 0 1\na 1 2\n"
    assert parse_instance(text) == toy1()


def test_parse_accepts_bytes():
    assert parse_instance(TOY1_TEXT.encode()) == toy1()


def test_parse_duplicate_arc_rejected():
    text = TOY1_TEXT.replace("st 3 2", "st 3 3") + "a 0 1\n"
    with pytest.raises(ParseError, match="duplicate arc"):
        parse_instance(text)


def test_parse_self_loop_rejected():
    text = TOY1_TEXT.replace("a 1 2", "a 2 2")
    with pytest.raises(ParseError, match="self-loop"):
        parse_instance(text)


@pytest.mark.parametrize(
    "text,match",
    [
        ("xx 1 0\nv 0 1 0\n", "header"),
        ("st 2 1\nv 0 1 0\nv 1 0 0\na 0 5\n", "unknown vertex"),
        ("st 2 0\nv 0 1 1\nv 1 0 2\n", "at most n-1"),
        ("st 2 0\nv 1 1 0\nv 0 0 0\n", "in order"),
        ("st 2 0\nv 0 3 0\nv 1 0 0\n", "facility flag"),
        ("st 2 1\nv 0 1 0\nv 1 0 0\n", "content lines"),
        ("", "header"),
        ("st 2 x\nv 0 1 0\nv 1 0 0\n", "header"),
        ("st 2 0 0\nv 0 1 0\nv 1 0 0\n", "header"),
        ("st 2 0\nv 0 1 0\nv 1 0 0.5\n", "integer"),
        ("st 2 1\nv 0 1 0\nv 1 0 0\na 0\n", "'a <u> <v>'"),
        ("st 2 1\nv 0 1 0\nv 1 0 0\nv 0 1\n", "'a <u> <v>'"),
        ("st 2 0\nv 0 1 -1\nv 1 0 0\n", "nonnegative"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_instance(text)


# a sign, a digit separator, an Arabic-Indic one and a fullwidth one: int()
# reads each as an integer, the formats do not
NON_DECIMAL = ["+1", "1_0", "\u0661", "\uff11"]


@pytest.mark.parametrize("field", NON_DECIMAL)
@pytest.mark.parametrize(
    "text,line",
    [
        ("st 2 {}\nv 0 1 1\nv 1 0 0\na 0 1\n", 1),
        ("st 2 1\nv 0 1 1\nv 1 0 {}\na 0 1\n", 3),
        ("st 2 1\nv 0 1 1\nv 1 0 0\n# arcs\na 0 {}\n", 5),
    ],
)
def test_parse_instance_fields_are_ascii_decimal(text, line, field):
    with pytest.raises(ParseError, match="with integer fields") as err:
        parse_instance(text.format(field))
    assert err.value.line == line


@pytest.mark.parametrize("field", NON_DECIMAL)
def test_parse_walks_fields_are_ascii_decimal(field):
    with pytest.raises(ParseError, match="with integer fields") as err:
        parse_walks(f"0 1\n\n1 {field}\n")
    assert err.value.line == 3


def test_parse_error_carries_line_number():
    try:
        parse_instance(TOY1_TEXT.replace("a 1 2", "a 2 2"))
    except ParseError as e:
        assert e.line == 6
    else:
        pytest.fail("expected ParseError")


def test_serialize_round_trip():
    for inst in [toy1(), toy2(), make_instance(1, [], facilities={0}, ploughs={})]:
        assert parse_instance(serialize_instance(inst)) == inst


def test_serialize_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, len(pairs)))
        fac = {v for v in range(n) if rng.random() < 0.5}
        pl = {v: rng.randint(0, n - 1) for v in rng.sample(range(n), k=min(n, 2))}
        inst = make_instance(n, arcs, fac, pl)
        assert parse_instance(serialize_instance(inst)) == inst


def _heads(inst, u):
    return sorted(v for a, v in inst.arcs if a == u)


def _tails(inst, v):
    return sorted(u for u, b in inst.arcs if b == v)


def test_mask_rows_match_arcs():
    # the rows are derived data: however an instance is made, bits() of a
    # row lists the arcs' heads (out_mask) or tails (in_mask), ascending
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, len(pairs)))
        inst = make_instance(n, arcs, {0}, {v: rng.randint(0, n - 1) for v in range(n)})
        variants = [
            inst,
            replace(inst, arcs=frozenset(arcs[: len(arcs) // 2])),
            replace(inst, ploughs=(0,) * n),
            transitive_closure(inst),
            condense(inst),
        ]
        for d in variants:
            for u in range(d.n):
                assert bits(d.out_mask[u]) == _heads(d, u)
                assert bits(d.in_mask[u]) == _tails(d, u)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(n=0, arcs=frozenset(), facility=(), ploughs=()), "at least one vertex"),
        (dict(n=2, arcs=frozenset(), facility=(True,), ploughs=(0, 0)), "length n"),
        (dict(n=2, arcs=frozenset(), facility=(True, False), ploughs=(0,)), "length n"),
        (dict(n=2, arcs=frozenset({(0, 2)}), facility=(True, True), ploughs=(1, 0)), "range"),
        (dict(n=2, arcs=frozenset({(1, 1)}), facility=(True, True), ploughs=(1, 0)), "loop"),
        (dict(n=2, arcs=frozenset(), facility=(True, True), ploughs=(-1, 0)), "negative"),
        (dict(n=2, arcs=frozenset(), facility=(True, True), ploughs=(2, 0)), "exceeds n-1"),
    ],
)
def test_instance_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Instance(**kwargs)


def test_instance_stores_outside_input_canonically():
    # arcs as a frozenset of pairs, flags as bools, counts as ints, so the
    # instance hashes, compares and round-trips like a parsed one
    with pytest.raises(ValueError, match=r"duplicate arc \(0,1\)"):
        Instance(n=2, arcs=[(0, 1), (0, 1)], facility=(True, True), ploughs=(1, 0))
    for arcs, count in (([(0, 1)], 1.5), ([(0, 1)], "1"), ([(0, 1)], None), ([(0.0, 1)], 1)):
        with pytest.raises(ValueError, match="must be integers"):
            Instance(n=2, arcs=arcs, facility=(True, True), ploughs=(count, 0))
    canonical = Instance(n=2, arcs=frozenset({(0, 1)}), facility=(True, True), ploughs=(1, 0))
    for arcs in ([(0, 1)], [[0, 1]], {(False, True)}):
        inst = Instance(n=2, arcs=arcs, facility=(2, 1), ploughs=[True, 0])
        assert inst == canonical and hash(inst) == hash(canonical)
        assert inst.arcs == frozenset({(0, 1)}) and isinstance(inst.arcs, frozenset)
        assert all(type(u) is type(v) is int for u, v in inst.arcs)
        assert inst.facility == (True, True) and all(type(f) is bool for f in inst.facility)
        assert inst.ploughs == (1, 0) and all(type(b) is int for b in inst.ploughs)
        assert parse_instance(serialize_instance(inst)) == inst
        assert verify_st_solution(inst, parse_walks("0 1\n"))[0]
        assert solve_st_exact(inst)[0]


def test_make_instance_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match="id 7"):
        make_instance(3, [(0, 1)], {0, 7}, {0: 1})
    with pytest.raises(ValueError, match="id 9"):
        make_instance(3, [(0, 1)], {0}, {9: 2, 0: 1})
    with pytest.raises(ValueError, match="id -1"):
        make_instance(3, [(0, 1)], {-1}, {})
    with pytest.raises(ValueError, match="id -2"):
        make_instance(3, [(0, 1)], {0}, {-2: 1})
    inst = make_instance(3, [(0, 1)], {0, 2}, {1: 2})
    assert inst.facility == (True, False, True) and inst.ploughs == (0, 2, 0)


def test_bits_lists_set_positions_ascending():
    assert bits(0) == []
    assert bits(0b101001) == [0, 3, 5]
    assert bits(1 << 70) == [70]


def test_reach_steps_inside_within_and_keeps_the_seed():
    # path 0 -> 1 -> 2 -> 3 and a side arc 3 -> 0
    step = (0b0010, 0b0100, 0b1000, 0b0001)
    assert reach(0b0001, step) == 0b1111
    assert reach(0b0100, step, within=0b0110) == 0b0100  # 3 is outside within
    assert reach(0b1000, step, within=0b0110) == 0b1000  # the seed stays, 0 is outside
    assert reach(0b0001, step, within=0b0011) == 0b0011
    assert reach(0, step) == 0


def test_reach_matches_a_plain_search_on_randoms():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        inst = make_instance(n, rng.sample(pairs, k=rng.randint(0, len(pairs))), set(), {})
        seed, within = rng.getrandbits(n), rng.getrandbits(n)
        seen = set(bits(seed))
        stack = list(seen)
        while stack:
            for u in _heads(inst, stack.pop()):
                if within >> u & 1 and u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert reach(seed, inst.out_mask, within) == sum(1 << v for v in seen)


def test_condense_numbers_components_by_smallest_member():
    # components {0}, {1, 3, 5} and {2, 4} become vertices 0, 1 and 2
    arcs = [(1, 5), (5, 3), (3, 1), (2, 4), (4, 2), (0, 1), (4, 5), (4, 3), (2, 0)]
    inst = make_instance(6, arcs, {3, 4}, {1: 1, 3: 1, 5: 1, 2: 1})
    dag = condense(inst)
    assert dag.n == 3
    # arcs inside a component vanish; (4, 5) and (4, 3) merge into (2, 1)
    assert dag.arcs == {(0, 1), (2, 1), (2, 0)}
    assert dag.facility == (False, True, True)
    assert dag.ploughs == (0, 2, 1)


def test_condense_caps_ploughs_at_n_c_minus_one():
    # {0, 1} holds 1 + 2 ploughs, capped at n_c - 1 = 1; {2} keeps its one
    inst = make_instance(3, [(0, 1), (1, 0), (1, 2)], {2}, {0: 1, 1: 2, 2: 1})
    assert condense(inst).ploughs == (1, 1)
    # one component: a single vertex with no arcs and no ploughs
    ring = make_instance(3, [(0, 1), (1, 2), (2, 0)], {0, 2}, {1: 2})
    assert condense(ring) == make_instance(1, [], {0}, {})


def test_condense_leaves_an_acyclic_host_alone():
    inst = make_instance(4, [(0, 1), (1, 2), (0, 3), (3, 2)], {0, 2}, {0: 2})
    assert condense(inst) is inst
    path = toy1()
    assert condense(path) is path
    rng = random.Random(31)
    for _ in range(60):  # every condensation is acyclic, so it is its own
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, min(len(pairs), n + 4)))
        dag = condense(make_instance(n, arcs, {0}, {}))
        assert condense(dag) is dag


def test_condense_matches_a_pairwise_reachability_oracle_on_randoms():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, min(12, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(0, n)))
        pl = {v: rng.randint(0, n - 1) for v in range(n)}
        inst = make_instance(n, arcs, fac, pl)
        reaches = [reach(1 << v, inst.out_mask) for v in range(n)]
        same = [[reaches[u] >> v & 1 and reaches[v] >> u & 1 for v in range(n)] for u in range(n)]
        leaders = sorted({min(v for v in range(n) if same[u][v]) for u in range(n)})
        comp = [leaders.index(min(v for v in range(n) if same[u][v])) for u in range(n)]
        dag = condense(inst)
        assert dag.n == len(leaders)
        assert dag.arcs == {(comp[u], comp[v]) for u, v in arcs if comp[u] != comp[v]}
        for c in range(dag.n):
            members = [u for u in range(n) if comp[u] == c]
            assert dag.facility[c] == any(u in fac for u in members)
            assert dag.ploughs[c] == min(sum(pl[u] for u in members), dag.n - 1)
        assert (dag is inst) == (dag.n == n)


def test_transitive_closure_toy1():
    tc = transitive_closure(toy1())
    assert tc.arcs == {(0, 1), (1, 2), (0, 2)}
    assert tc.facility == toy1().facility
    assert tc.ploughs == toy1().ploughs


def test_transitive_closure_two_cycle_has_no_self_loops():
    inst = make_instance(2, [(0, 1), (1, 0)], facilities={0}, ploughs={})
    tc = transitive_closure(inst)
    assert tc.arcs == {(0, 1), (1, 0)}


def test_transitive_closure_idempotent_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, len(pairs)))
        inst = make_instance(n, arcs, set(), {})
        tc = transitive_closure(inst)
        assert transitive_closure(tc) == tc
        # closure matches brute-force reachability
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                reach = _reachable(inst, u)
                assert ((u, v) in tc.arcs) == (v in reach)


def _reachable(inst, s):
    seen = set()
    stack = _heads(inst, s)
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(_heads(inst, v))
    return seen


def test_shortcut_walks_valid_in_closure():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = set(rng.sample(pairs, k=rng.randint(1, len(pairs))))
        inst = make_instance(n, arcs, set(), {})
        tc = transitive_closure(inst)
        # random valid walk
        v = rng.randrange(n)
        walk = [v]
        for _ in range(rng.randint(2, 6)):
            nxt = _heads(inst, walk[-1])
            if not nxt:
                break
            walk.append(rng.choice(nxt))
        if len(walk) < 3:
            continue
        drop = rng.randrange(1, len(walk) - 1)
        short = walk[:drop] + walk[drop + 1 :]
        short = [x for i, x in enumerate(short) if i == 0 or x != short[i - 1]]
        if len(short) >= 2:
            assert walk_is_valid(tc, Walk(tuple(short)))


def test_sources():
    assert sources(toy1()) == {0}
    assert sources(make_instance(2, [(0, 1), (1, 0)], set(), {})) == frozenset()


def test_facilities_connected():
    inst = toy1()
    assert facilities_connected(inst, {(0, 1), (1, 2)})
    assert not facilities_connected(inst, {(0, 1)})
    single = make_instance(2, [(0, 1)], facilities={1}, ploughs={})
    assert facilities_connected(single, set())
    with pytest.raises(ValueError, match="non-arc"):
        facilities_connected(inst, {(2, 0)})
    with pytest.raises(ValueError, match="non-arc"):
        facilities_connected(single, [(1, 0)])  # checked even with one facility


def test_facilities_connected_matches_networkx_on_randoms():
    nx = pytest.importorskip("networkx")
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, len(pairs)))
        fac = set(rng.sample(range(n), rng.randint(2, n)))
        inst = make_instance(n, arcs, fac, {})
        cleared = rng.sample(arcs, k=rng.randint(0, len(arcs)))
        g = nx.Graph(cleared)
        expected = fac <= set(g) and any(fac <= c for c in nx.connected_components(g))
        assert facilities_connected(inst, iter(cleared)) == expected


def test_walk_is_valid():
    inst = toy1()
    assert walk_is_valid(inst, Walk((0, 1, 2)))
    assert not walk_is_valid(inst, Walk((0, 2)))
    assert walk_is_valid(inst, Walk((1,)))


def test_verify_st_solution():
    inst = toy1()
    ok, reason = verify_st_solution(inst, walks_from_lists([[0, 1, 2]]))
    assert ok, reason
    ok, reason = verify_st_solution(inst, walks_from_lists([[0, 1]]))
    assert not ok and "not connected" in reason
    ok, reason = verify_st_solution(inst, walks_from_lists([[1, 2]]))
    assert not ok and "start" in reason
    ok, reason = verify_st_solution(inst, walks_from_lists([]))
    assert not ok and "expected 1 walks" in reason
    ok, reason = verify_st_solution(inst, walks_from_lists([[0, 2]]))
    assert not ok and "missing arc" in reason


def test_walks_text_round_trip():
    sol = walks_from_lists([[0, 1, 2], [2], [1, 2]])
    assert parse_walks(serialize_walks(sol)) == sol
    assert parse_walks("") == walks_from_lists([])
    with pytest.raises(ParseError, match="integer") as err:
        parse_walks("0 1\n# comment\n\n2 x 1\n")
    assert err.value.line == 4
