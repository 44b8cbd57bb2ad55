import hashlib
import itertools
import pickle
import random
import time

import networkx as nx
import pytest

from snowteam.trees import (
    FREE_TREE_COUNTS,
    MAX_ORDER,
    FreeTree,
    TreeCandidate,
    candidate_from_code,
    candidate_stream,
    enumerate_free_trees,
    orient_tree,
    plough_demand,
)


def _to_nx(order, edges):
    g = nx.Graph()
    g.add_nodes_from(range(order))
    g.add_edges_from(edges)
    return g


@pytest.mark.parametrize("order,count", list(enumerate(FREE_TREE_COUNTS, start=1)))
def test_free_tree_counts(order, count):
    assert sum(1 for _ in enumerate_free_trees(order)) == count


def test_free_trees_match_networkx_classes():
    for order in range(2, 9):
        mine = [_to_nx(t.order, t.edges) for t in enumerate_free_trees(order)]
        theirs = list(nx.nonisomorphic_trees(order))
        assert len(mine) == len(theirs)
        for t in mine:
            assert sum(1 for s in theirs if nx.is_isomorphic(t, s)) == 1


def test_free_trees_pairwise_non_isomorphic():
    for order in range(2, 8):
        trees = [_to_nx(t.order, t.edges) for t in enumerate_free_trees(order)]
        for a, b in itertools.combinations(trees, 2):
            assert not nx.is_isomorphic(a, b)


def test_prufer_oracle_counts():
    """Labeled-tree generation + isomorphism dedupe agrees for small orders."""
    for order in range(3, 7):
        reps = []
        for seq in itertools.product(range(order), repeat=order - 2):
            g = nx.from_prufer_sequence(list(seq))
            if not any(nx.is_isomorphic(g, r) for r in reps):
                reps.append(g)
        assert len(reps) == FREE_TREE_COUNTS[order - 1]


def _nested_code(adj, v, parent):
    return tuple(sorted((_nested_code(adj, c, v) for c in adj[v] if c != parent), reverse=True))


def _assert_center_rooted_layout(t):
    """Vertex 0 is a center (the larger-coded one when there are two, and
    the other is vertex 1), ids are in preorder with edge i joining vertex
    i+1 to its parent, and children come in non-increasing subtree code."""
    order, code = t.order, t.code
    adj = [[] for _ in range(order)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = sorted(nx.center(_to_nx(order, t.edges)))
    assert centers in ([0], [0, 1])
    if centers == [0, 1]:
        assert _nested_code(adj, 0, -1) >= _nested_code(adj, 1, -1)
    for i, (p, c) in enumerate(t.edges):
        assert c == i + 1
        assert code[c] == code[p] + 1
        assert p == max(j for j in range(c) if code[j] == code[c] - 1)  # preorder
    ends = [next((j for j in range(v + 1, order) if code[j] <= code[v]), order) for v in range(order)]
    for v in range(order):
        kids = [c for p, c in t.edges if p == v]
        subtree_codes = [[d - code[c] for d in code[c : ends[c]]] for c in kids]
        assert subtree_codes == sorted(subtree_codes, reverse=True), t


def test_trees_are_valid_and_canonical():
    for order in range(1, 12):
        codes = []
        for t in enumerate_free_trees(order):
            assert t.order == order
            assert len(t.edges) == order - 1
            assert nx.is_tree(_to_nx(order, t.edges))
            assert len(t.code) == order and t.code[0] == 0
            _assert_center_rooted_layout(t)
            codes.append(t.code)
        assert all(a < b for a, b in zip(codes, codes[1:]))


def test_single_vertex():
    trees = list(enumerate_free_trees(1))
    assert len(trees) == 1 and trees[0].edges == ()
    cands = list(orient_tree(trees[0]))
    assert len(cands) == 1
    assert cands[0].arcs == () and cands[0].demand == (0,)


def test_order_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_free_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_free_trees(17))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        next(candidate_stream(2, MAX_ORDER + 1))  # refused before the first candidate
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("order", range(2, 9))
def test_orientation_count(order):
    for tree in enumerate_free_trees(order):
        assert sum(1 for _ in orient_tree(tree, dedupe=False)) == 2 ** (order - 1)
        light = [c for c in orient_tree(tree) if c.total_demand() <= 3]
        assert list(orient_tree(tree, budget=3)) == light


def _sources(cand):
    """Brute force: vertices of in-degree at most 1 or out-degree above it."""
    ins = [sum(b == v for _, b in cand.arcs) for v in range(cand.order)]
    outs = [sum(a == v for a, _ in cand.arcs) for v in range(cand.order)]
    return sum(i <= 1 or o > i for i, o in zip(ins, outs))


@pytest.mark.parametrize("order", range(1, 10))
def test_sources_bound_filters_the_unbounded_output(order):
    for tree in enumerate_free_trees(order):
        for dedupe, budget in itertools.product((False, True), (None, 1, 3)):
            full = [(c, _sources(c)) for c in orient_tree(tree, dedupe, budget)]
            for sources in range(order + 1):
                want = [c for c, count in full if count <= sources]
                assert list(orient_tree(tree, dedupe, budget, sources=sources)) == want


@pytest.mark.parametrize("f_count", range(2, 8))
def test_sources_and_budget_bound_the_order(f_count):
    # the cap _check_scale puts on a restricted stream: with sources = |F| and
    # budget b no tree has more than |F| + b - 1 vertices.  A smaller budget
    # yields a subset, so each order is checked at the largest budget (<= 6)
    # the bound excludes it at
    for order in range(f_count, 14):
        budget = min(6, order - f_count)
        for tree in enumerate_free_trees(order):
            assert next(orient_tree(tree, budget=budget, sources=f_count), None) is None
    # and the bound is met whenever it is at most 2|F| - 1
    for budget in range(1, min(6, f_count) + 1):
        bound = f_count + budget - 1
        assert any(
            next(orient_tree(tree, budget=budget, sources=f_count), None)
            for tree in enumerate_free_trees(bound)
        )
    # a tree of total demand D is D arc-disjoint directed paths, and each leaf
    # ends one (orient_tree): no tree with more than 2b leaves fits budget b
    for tree in enumerate_free_trees(f_count):
        ends = [v for edge in tree.edges for v in edge]
        leaves = sum(ends.count(v) == 1 for v in range(f_count))
        assert all(leaves <= 2 * c.total_demand() for c in orient_tree(tree))
        assert next(orient_tree(tree, budget=(leaves - 1) // 2), None) is None


def test_more_leaves_than_sources_yields_nothing():
    star = next(t for t in enumerate_free_trees(5) if t.code == (0, 1, 1, 1, 1))
    assert list(orient_tree(star, sources=3)) == []
    # the four leaves count, and the center does once three arcs leave it
    assert len(list(orient_tree(star, sources=4))) == 1 + 4 + 6
    path = next(iter(enumerate_free_trees(2)))
    assert list(orient_tree(path, sources=1)) == []


def test_path3_orientation_classes():
    path = next(t for t in enumerate_free_trees(3))
    assert sum(1 for _ in orient_tree(path, dedupe=False)) == 4
    classes = list(orient_tree(path, dedupe=True))
    assert len(classes) == 3


def test_single_edge_orientation_classes():
    edge = next(iter(enumerate_free_trees(2)))
    assert len(list(orient_tree(edge, dedupe=False))) == 2
    assert len(list(orient_tree(edge, dedupe=True))) == 1


def test_orientation_dedupe_matches_networkx():
    rng = random.Random(0)
    for order in range(2, 7):
        for tree in enumerate_free_trees(order):
            all_orients = list(orient_tree(tree, dedupe=False))
            deduped = list(orient_tree(tree, dedupe=True))
            digraphs = []
            for c in all_orients:
                g = nx.DiGraph()
                g.add_nodes_from(range(order))
                g.add_edges_from(c.arcs)
                digraphs.append(g)
            reps = []
            for g in digraphs:
                if not any(nx.is_isomorphic(g, r) for r in reps):
                    reps.append(g)
            assert len(deduped) == len(reps)


def test_plough_demand_examples():
    assert plough_demand([(0, 1), (1, 2)]) == (1, 0, 0)
    assert plough_demand([(0, 1), (0, 2)]) == (2, 0, 0)
    assert plough_demand([(1, 0), (2, 0)]) == (0, 1, 1)


def test_plough_demand_rejects_non_trees():
    with pytest.raises(ValueError, match="n-1 arcs"):
        plough_demand([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="n-1 arcs"):
        plough_demand([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="n-1 arcs"):
        plough_demand([(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="repeated underlying edge"):
        plough_demand([(0, 1), (1, 0), (2, 3)])
    with pytest.raises(ValueError, match="not connected"):
        plough_demand([(0, 1), (1, 2), (2, 0)], order=4)
    for arcs in ([(0, 1), (1, -1)], [(0, 1), (1, 5)]):
        with pytest.raises(ValueError, match="outside"):
            plough_demand(arcs, order=3)


def _strip_paths(cand: TreeCandidate):
    """Greedy path stripping: start demand(v) walks at each v, cover all arcs."""
    unused = set(cand.arcs)
    out_adj = {}
    for u, v in cand.arcs:
        out_adj.setdefault(u, []).append(v)
    for v in range(cand.order):
        for _ in range(cand.demand[v]):
            cur = v
            while True:
                nxt = next((w for w in sorted(out_adj.get(cur, [])) if (cur, w) in unused), None)
                if nxt is None:
                    break
                unused.remove((cur, nxt))
                cur = nxt
    return unused


@pytest.mark.parametrize("order", range(2, 8))
def test_demand_equals_minimum_path_cover(order):
    for tree in enumerate_free_trees(order):
        for cand in orient_tree(tree, dedupe=False):
            assert _strip_paths(cand) == set(), cand
            assert cand.total_demand() >= 1


def test_candidate_stream_classes():
    cands = list(candidate_stream(2, 3))
    assert len(cands) == 4
    assert sum(1 for c in cands if c.order == 2) == 1
    assert sum(1 for c in cands if c.order == 3) == 3


def test_candidate_stream_budget_one_gives_paths():
    cands = list(candidate_stream(2, 3, budget=1))
    assert len(cands) == 2
    for c in cands:
        assert c.total_demand() == 1
        # single directed path: one source with excess 1, no branching
        outdeg = [0] * c.order
        indeg = [0] * c.order
        for u, v in c.arcs:
            outdeg[u] += 1
            indeg[v] += 1
        assert max(outdeg) <= 1 and max(indeg) <= 1


def test_candidate_stream_empty_for_no_facilities():
    assert list(candidate_stream(0, 5)) == []


def _directed_code(adj_dir, v, parent):
    # adj_dir[v] = list of (neighbor, is_outgoing_from_v)
    return tuple(
        sorted(
            ((down, _directed_code(adj_dir, c, v)) for c, down in adj_dir[v] if c != parent),
            reverse=True,
        )
    )


def _directed_canonical(order, arcs, centers):
    """Directed-isomorphism key rebuilt from scratch for one orientation."""
    adj_dir = [[] for _ in range(order)]
    for u, v in arcs:
        adj_dir[u].append((v, True))
        adj_dir[v].append((u, False))
    return max(_directed_code(adj_dir, c, -1) for c in centers)


def _reference_classes(order):
    """First orientation of every directed-isomorphism class: all 2^m masks
    in increasing order, deduped by a key, demand from plough_demand."""
    rows = []
    for tree in enumerate_free_trees(order):
        m = order - 1
        centers = nx.center(_to_nx(order, tree.edges))
        seen = set()
        for mask in range(1 << m):
            arcs = tuple(
                (u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(tree.edges)
            )
            key = _directed_canonical(order, arcs, centers)
            if key in seen:
                continue
            seen.add(key)
            demand = plough_demand(arcs, order=order) if m else (0,)
            orientation = tuple(bool(mask >> i & 1) for i in range(m))
            rows.append((order, arcs, demand, tree.code, orientation))
    return rows


def test_candidate_stream_matches_reference():
    """Without sources, the stream is the reference's; with sources = f, the
    reference filtered by the brute-force count."""
    classes = {order: _reference_classes(order) for order in range(1, 10)}
    count = {row: _sources(TreeCandidate(*row)) for rows in classes.values() for row in rows}
    for f in range(1, 6):
        for max_order in range(f, 10):
            for budget in (None, 0, 1, 2, 3, 4, 5):
                want = [
                    row
                    for order in range(f, max_order + 1)
                    for row in classes[order]
                    if budget is None or sum(row[2]) <= budget
                ]
                got = [
                    (c.order, c.arcs, c.demand, c.free_code, c.orientation)
                    for c in candidate_stream(f, max_order, budget=budget)
                ]
                assert got == want, (f, max_order, budget)
                if budget not in (None, 1, 3):
                    continue
                bounded = [
                    (c.order, c.arcs, c.demand, c.free_code, c.orientation)
                    for c in candidate_stream(f, max_order, budget=budget, sources=f)
                ]
                assert bounded == [row for row in want if count[row] <= f], (f, max_order, budget)


def test_candidate_stream_digest_beyond_order_nine():
    """Past the reference's order 9, where twin blocks and mirror halves
    grow: the restricted streams up to order 12 and every deduped
    orientation of order 10, against a digest recorded from the recursive
    enumeration this loop replaced."""
    h = hashlib.sha256()
    count = 0

    def feed(cands):
        nonlocal count
        for c in cands:
            count += 1
            row = (c.order, c.arcs, c.demand, c.free_code, c.orientation)
            h.update(repr(row).encode() + b"\n")

    for f in range(3, 7):
        for budget in (2, 3, 4):
            for sources in (None, f):
                feed(candidate_stream(f, 2 * f, budget, sources))
    for tree in enumerate_free_trees(10):
        feed(orient_tree(tree, dedupe=True))
    assert count == 76192
    assert h.hexdigest() == "cdc133da8317292da5829fa2b8a8f51bbffcffb8886b5129f24e3bfe5d70c314"


@pytest.mark.parametrize(
    "code,classes",
    [
        ((0, 1, 1, 1), 4),  # star K1,3: three twin leaves, by out-degree 0..3
        ((0, 1, 2, 1), 4),  # path on 4 vertices: a mirror of two edges
        ((0, 1, 2, 2, 1, 1), 9),  # double broom: a mirror of two cherries
    ],
)
def test_twin_and_mirror_rules_on_named_trees(code, classes):
    tree = next(t for t in enumerate_free_trees(len(code)) if t.code == code)
    kept = list(orient_tree(tree, dedupe=True))
    assert len(kept) == classes
    digraphs = [nx.DiGraph(c.arcs) for c in kept]
    for a, b in itertools.combinations(digraphs, 2):
        assert not nx.is_isomorphic(a, b)


def test_golden_canonical_codes():
    assert [t.code_str() for t in enumerate_free_trees(4)] == ["0 1 1 1", "0 1 2 1"]
    # star, path (rooted at its middle), chair (heavy branch first)
    assert [t.code_str() for t in enumerate_free_trees(5)] == [
        "0 1 1 1 1",
        "0 1 2 1 2",
        "0 1 2 2 1",
    ]


def test_candidate_code_round_trip():
    from snowteam.trees import candidate_from_code

    for order in range(1, 6):
        for tree in enumerate_free_trees(order):
            for cand in orient_tree(tree, dedupe=False):
                back = candidate_from_code(cand.code_str())
                assert back.order == cand.order
                assert back.arcs == cand.arcs
                assert back.demand == cand.demand
                assert back.orientation == cand.orientation


def test_candidate_code_rejects_malformed():
    from snowteam.trees import candidate_from_code

    with pytest.raises(ValueError):
        candidate_from_code("1 2")  # must start at depth 0
    with pytest.raises(ValueError):
        candidate_from_code("0 1 3 / dd")  # depth jump
    with pytest.raises(ValueError):
        candidate_from_code("0 1 / x")  # bad direction char
    with pytest.raises(ValueError):
        candidate_from_code("0 1 1 / d")  # wrong direction count


@pytest.mark.parametrize("depth", ["+1", "\uff11", "\u0661", "1_0"])
def test_candidate_code_depths_are_ascii_decimal(depth):
    from snowteam.trees import candidate_from_code

    # the ASCII-decimal rule of every integer field: '+', digits of other
    # scripts and '_' are no depth, though int() would read each of them
    code = f"0 {depth} / d"
    with pytest.raises(ValueError, match="bad depth sequence"):
        candidate_from_code(code)
    assert candidate_from_code("0 1 / d").free_code == (0, 1)


def test_tree_types_keep_their_contract():
    tree = list(enumerate_free_trees(5))[1]
    assert tree == FreeTree(tree.order, tree.edges, tree.code)
    assert tree == FreeTree(order=tree.order, edges=tree.edges, code=tree.code)
    assert tree != list(enumerate_free_trees(5))[0]
    assert len({tree, FreeTree(tree.order, tree.edges, tree.code)}) == 1
    fresh = pickle.loads(pickle.dumps(tree))
    assert fresh == tree and fresh.orienting == tree.orienting
    assert pickle.loads(pickle.dumps(tree)).orienting == tree.orienting  # pickled once read
    cand = candidate_from_code("0 1 1 2 / dud")
    fields = (cand.order, cand.arcs, cand.demand, cand.free_code, cand.orientation)
    assert fields == (4, ((0, 1), (2, 0), (2, 3)), (0, 0, 2, 0), (0, 1, 1, 2), (True, False, True))
    assert cand == TreeCandidate(*fields)
    assert cand == TreeCandidate(
        order=4, arcs=fields[1], demand=fields[2], free_code=fields[3], orientation=fields[4]
    )
    assert cand != candidate_from_code("0 1 1 2 / ddd")
    assert len({cand, TreeCandidate(*fields)}) == 1
    assert (cand.total_demand(), cand.code_str()) == (2, "0 1 1 2 / dud")
    assert pickle.loads(pickle.dumps(cand)) == cand
    with pytest.raises(AttributeError):
        cand.order = 0  # a NamedTuple
