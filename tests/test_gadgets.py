import itertools
import pickle
import random

import pytest

from snowteam.digraph import ParseError, parse_instance, verify_st_solution
from snowteam.digraph import walks_from_lists
from snowteam.exact import solve_st_exact, solve_variant_exact
from snowteam.gadgets import (
    GadgetLayout,
    SetCoverInstance,
    build_gadget,
    cover_to_walks,
    gen_fig3,
    parse_set_cover,
    serialize_gadget,
    serialize_set_cover,
    solve_set_cover_exact,
    walks_to_cover,
)
from snowteam.selfcheck import SAMPLE_COVER

SAMPLE = SetCoverInstance(
    n_items=5, sets=((1, 3, 4), (2, 3), (2, 4, 5), (3, 4, 5)), k=2
)


def test_sample_gadget_order_sources_ploughs():
    g = build_gadget(SAMPLE)
    inst = g.instance
    assert inst.n == 52  # 4*11 + 5 + 2 + 1
    from snowteam.digraph import sources

    assert len(sources(inst)) == 13  # k + sum of set sizes
    assert inst.total_ploughs() == 13
    assert all(inst.facility)
    assert inst.bases() == sources(inst)


def test_tiny_gadget_order_formula():
    g = build_gadget(SetCoverInstance(1, ((1,),), 1))
    assert g.instance.n == 4 * 1 + 1 + 1 + 1


def test_gadgets_are_dags_and_connected():
    import networkx as nx

    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        while True:
            sets = sorted(
                {
                    tuple(sorted(rng.sample(range(1, n + 1), k=rng.randint(1, n))))
                    for _ in range(m)
                }
            )
            if set().union(*map(set, sets)) == set(range(1, n + 1)):
                break
        sc = SetCoverInstance(n, tuple(sets), rng.randint(1, len(sets)))
        g = build_gadget(sc)
        dg = nx.DiGraph()
        dg.add_nodes_from(range(g.instance.n))
        dg.add_edges_from(g.instance.arcs)
        assert nx.is_directed_acyclic_graph(dg)
        assert nx.is_connected(dg.to_undirected())
        expected = 4 * sum(len(s) for s in sc.sets) + sc.n_items + sc.k + 1
        assert g.instance.n == expected


def test_set_cover_invariants():
    with pytest.raises(ValueError, match="no set"):
        SetCoverInstance(2, ((1,),), 1)
    with pytest.raises(ValueError, match="ascending"):
        SetCoverInstance(2, ((2, 1),), 1)
    with pytest.raises(ValueError, match="empty set"):
        SetCoverInstance(1, ((), (1,)), 1)
    with pytest.raises(ValueError, match="positive"):
        SetCoverInstance(1, ((1,),), 0)


def test_gadget_types_keep_their_contract():
    sc = SetCoverInstance(2, ((1,), (1, 2)), 1)
    assert (sc.n_items, sc.sets, sc.k, sc.m) == (2, ((1,), (1, 2)), 1, 2)
    assert sc == SetCoverInstance(n_items=2, sets=((1,), (1, 2)), k=1) != SetCoverInstance(2, ((1, 2),), 1)
    assert len({sc, SetCoverInstance(2, ((1,), (1, 2)), 1)}) == 1
    g = build_gadget(sc)
    assert g == GadgetLayout(sc, g.instance, dict(g.names))
    assert g == GadgetLayout(sc=sc, instance=g.instance, names=dict(g.names))
    assert g != build_gadget(SetCoverInstance(2, ((1,), (1, 2)), 2))
    with pytest.raises(TypeError):
        hash(g)  # names is a dict
    names = [g.name_of(v) for v in range(g.instance.n)]
    for value in (sc, g):
        assert pickle.loads(pickle.dumps(value)) == value
    assert [pickle.loads(pickle.dumps(g)).name_of(v) for v in range(g.instance.n)] == names


def test_set_cover_text_round_trip():
    text = serialize_set_cover(SAMPLE)
    assert parse_set_cover(text) == SAMPLE
    assert text.splitlines()[0] == "sc 5 4 2"


@pytest.mark.parametrize(
    "text,match,line",
    [
        ("sc 2 2 1\ns 1 2\ns\n", "empty set", 3),
        ("# cover\nsc 2 1\ns 1 2\n", "header", 2),
        ("sc 2 one 1\ns 1 2\n", "header", 1),
        ("", "header", 1),
        ("sc 2 2 1\ns 1 2\n", "content lines", 1),
        ("sc 3 2 1\ns 1 2\ns 2 x\n", "integer", 3),
        ("sc 3 2 1\ns 1 2\nt 3\n", "'s <item> ...'", 3),
        ("sc 3 3 1\ns 1\n\ns 3 2\ns 2\n", "ascending", 4),
        ("sc 3 2 1\ns 1 2\ns 3 4\n", "unknown item", 3),
        ("sc 3 2 1\ns 1\ns 2\n", "no set", 1),
        ("sc 0 0 1\n", "at least one item", 1),
        ("sc 2 1 0\ns 1 2\n", "positive", 1),
    ]
    # a sign, a digit separator, an Arabic-Indic one and a fullwidth one,
    # which int() reads, are no integer fields
    + [
        (text.format(field), "with integer fields", line)
        for field in ("+1", "1_0", "\u0661", "\uff11")
        for text, line in (("sc 3 2 {}\ns 1 2\ns 3\n", 1), ("sc 3 2 1\ns 1 2\n\ns {}\n", 4))
    ],
)
def test_parse_set_cover_errors_name_their_line(text, match, line):
    with pytest.raises(ParseError, match=match) as err:
        parse_set_cover(text)
    assert err.value.line == line


def test_serialize_gadget_parses_back():
    g = build_gadget(SAMPLE)
    text = serialize_gadget(g)
    assert parse_instance(text) == g.instance
    body = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert sum(1 for l in body if l.startswith("v ")) == 52


def test_name_of_matches_the_comment_lines():
    g = build_gadget(SAMPLE)
    comments = serialize_gadget(g).splitlines()[1:53]
    assert comments[:5] == ["#   0 = u_1", "#   1 = u_{1,1}", "#   2 = u'_{1,1}", "#   3 = v_{1,1}", "#   4 = v'_{1,1}"]
    assert comments[-3:] == ["#   49 = z", "#   50 = z_1", "#   51 = z_2"]
    assert comments == [f"#   {vid} = {g.name_of(vid)}" for vid in range(52)]
    for vid in (-1, 52):
        with pytest.raises(KeyError):
            g.name_of(vid)


def test_solve_set_cover_exact_sample():
    assert solve_set_cover_exact(SAMPLE) == (1, 3)
    k1 = SetCoverInstance(SAMPLE.n_items, SAMPLE.sets, 1)
    assert solve_set_cover_exact(k1) is None
    km = SetCoverInstance(SAMPLE.n_items, SAMPLE.sets, 4)
    assert solve_set_cover_exact(km) == (1, 2, 3, 4)


def test_cover_to_walks_verifies():
    g = build_gadget(SAMPLE)
    sol = cover_to_walks(g, {1, 3})
    assert len(sol.walks) == 13
    ok, reason = verify_st_solution(g.instance, sol)
    assert ok, reason


def test_cover_to_walks_rejects_bad_covers():
    g = build_gadget(SAMPLE)
    with pytest.raises(ValueError, match="exactly k"):
        cover_to_walks(g, {4})
    with pytest.raises(ValueError, match="not a cover"):
        cover_to_walks(g, {2, 4})


def test_walks_to_cover_rejects_non_verifying():
    g = build_gadget(SAMPLE)
    with pytest.raises(ValueError, match="verify"):
        walks_to_cover(g, walks_from_lists([[0]]))


def test_walks_to_cover_round_trip():
    g = build_gadget(SAMPLE)
    for cover in itertools.combinations(range(1, 5), 2):
        if SAMPLE.is_cover(cover):
            assert walks_to_cover(g, cover_to_walks(g, cover)) == cover


def test_walks_to_cover_from_exact_witness():
    sc = SetCoverInstance(2, ((1,), (1, 2)), 1)
    g = build_gadget(sc)
    ans, witness = solve_st_exact(g.instance)
    assert ans
    cover = walks_to_cover(g, witness)
    assert sc.is_cover(cover) and len(cover) <= sc.k


def test_walks_to_cover_reads_crafted_escape():
    """A vertical plough may ride a row arc; only the arcs out of z pick sets."""
    sc = SetCoverInstance(2, ((1, 2),), 1)
    g = build_gadget(sc)
    nm = g.names
    # vertical plough of item 1 walks past its v-vertex into item 2's column;
    # the z-plough stops early and the item-2 plough keeps its own path.
    crafted = walks_from_lists(
        [
            [nm[("u", 1, 1)], nm[("uc", 1)], nm[("up", 1, 1)], nm[("v", 1, 1)],
             nm[("v", 2, 1)], nm[("vp", 2, 1)]],
            [nm[("u", 2, 1)], nm[("uc", 2)], nm[("up", 2, 1)], nm[("v", 2, 1)],
             nm[("vp", 2, 1)]],
            [nm[("zs", 1)], nm[("z",)], nm[("v", 1, 1)], nm[("vp", 1, 1)]],
        ]
    )
    ok, reason = verify_st_solution(g.instance, crafted)
    assert ok, reason
    assert walks_to_cover(g, crafted) == (1,)


def test_walks_to_cover_z_plough_stopping_at_z():
    """The cover holds only the rows z-ploughs ride; none is padded in."""
    sc = SetCoverInstance(2, ((1,), (1, 2)), 2)
    g = build_gadget(sc)
    nm = g.names
    vertical = [
        [nm[("u", i, j)], nm[("uc", i)], nm[("up", i, j)], nm[("v", i, j)], nm[("vp", i, j)]]
        for i in (1, 2)
        for j in sc.containing(i)
    ]
    sol = walks_from_lists(
        vertical
        + [
            [nm[("zs", 1)], nm[("z",)], nm[("v", 1, 2)], nm[("v", 2, 2)]],
            [nm[("zs", 2)], nm[("z",)]],
        ]
    )
    ok, reason = verify_st_solution(g.instance, sol)
    assert ok, reason
    assert walks_to_cover(g, sol) == (2,)


def test_walks_to_cover_random_witnesses():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        while True:
            sets = sorted(
                {
                    tuple(sorted(rng.sample(range(1, n + 1), k=rng.randint(1, n))))
                    for _ in range(m)
                }
            )
            if set().union(*map(set, sets)) == set(range(1, n + 1)):
                break
        sc = SetCoverInstance(n, tuple(sets), rng.randint(1, len(sets)))
        g = build_gadget(sc)
        ans, witness = solve_st_exact(g.instance)
        want = solve_set_cover_exact(sc) is not None
        assert ans == want
        if ans:
            cover = walks_to_cover(g, witness)
            assert sc.is_cover(cover) and len(cover) <= sc.k, (sc, cover)


def test_renumbered_sample_gadgets():
    # the exact engine breaks ties by vertex id, so item numbering moves its
    # search and the witness it returns; answers and covers must not move
    rng = random.Random(20171201)
    for k in (1, 2, 3):
        for _ in range(8):
            perm = list(range(1, SAMPLE_COVER.n_items + 1))
            rng.shuffle(perm)
            sets = tuple(tuple(sorted(perm[x - 1] for x in s)) for s in SAMPLE_COVER.sets)
            sc = SetCoverInstance(SAMPLE_COVER.n_items, sets, k)
            g = build_gadget(sc)
            ans, witness = solve_st_exact(g.instance)
            assert ans == (solve_set_cover_exact(sc) is not None), sc
            assert ans == (k >= 2)
            if ans:
                cover = walks_to_cover(g, witness)
                assert sc.is_cover(cover) and len(cover) <= k, (sc, cover)


def test_gen_fig3_closure_adds_nothing():
    from snowteam.digraph import transitive_closure

    inst = gen_fig3(5)
    assert transitive_closure(inst).arcs == inst.arcs


def test_gen_fig3():
    inst = gen_fig3(3)
    assert inst.arcs == {(1, 0), (1, 2)}
    assert solve_variant_exact(inst, "min-st") == 2
    inst5 = gen_fig3(5)
    assert len(inst5.arcs) == 4
    assert solve_variant_exact(inst5, "min-st") == 4
    with pytest.raises(ValueError):
        gen_fig3(4)
    with pytest.raises(ValueError):
        gen_fig3(1)
