import itertools
import random

import numpy as np
import pytest

from snowteam import tpe
from snowteam.digraph import bits, make_instance, transitive_closure
from snowteam.exact import solve_tpe_exact
from snowteam.solvers import _candidate_feasible
from snowteam.tpe import (
    Circuit,
    build_circuit,
    decide_tpe,
    detect_zt_multilinear,
    embed,
    eval_trial,
    expand_symbolic,
    placements,
    CIRCUIT_SIZE_C,
)
from snowteam.trees import enumerate_free_trees, orient_tree, candidate_stream


def _tree_edge_down():
    """Single arc 0 -> 1 with demand (1, 0)."""
    ft = next(iter(enumerate_free_trees(2)))
    return next(c for c in orient_tree(ft) if c.arcs == ((0, 1),))


def _tree_star_out():
    """Arcs 0->1, 0->2 with demand (2, 0, 0)."""
    ft = next(iter(enumerate_free_trees(3)))
    return next(c for c in orient_tree(ft) if c.arcs == ((0, 1), (0, 2)))


def toy1_closure():
    return transitive_closure(make_instance(3, [(0, 1), (1, 2)], {0, 2}, {0: 1}))


def _terminals(host):
    """Facilities and plough bases: the terminal set of a ``tpe`` file."""
    return host.facilities() | host.bases()


def toy1_tpe():
    """(host, tree, terminals) of the one-arc pattern on toy1's closure."""
    host = toy1_closure()
    return host, _tree_edge_down(), _terminals(host)


def test_x_gate_exponents_and_pruned_pairs():
    circ = build_circuit(*toy1_tpe())
    # (host, tree vertex, z exponent), children before parents: z on the
    # terminals 0 and 2; tree vertex 0 needs a plough, so host vertices 1 and
    # 2 (no plough) get no x-gate for it, and tree vertex 1 gets none on host
    # vertex 0, which no placement of vertex 0 has an arc to: that gate
    # would never be read
    xs = [circ.gates[g][1:] for g in circ.x_gate_ids()]
    assert xs == [(1, 1, 0), (2, 1, 1), (0, 0, 1)]


def test_toy1_circuit_expansion():
    circ = build_circuit(*toy1_tpe())
    got = expand_symbolic(circ, max_vars=3, max_zdeg=3)
    assert got == {((0, 1), 1): 1, ((0, 2), 2): 1}


def test_single_vertex_tree_circuit():
    host = make_instance(2, [], facilities={0}, ploughs={})
    tree = next(iter(orient_tree(next(iter(enumerate_free_trees(1))))))
    circ = build_circuit(host, tree, _terminals(host))
    got = expand_symbolic(circ, max_vars=2, max_zdeg=2)
    assert got == {((0,), 1): 1, ((1,), 0): 1}


def test_symmetric_embeddings_double_coefficient():
    host = make_instance(3, [(0, 1), (0, 2)], facilities=set(), ploughs={0: 2})
    circ = build_circuit(host, _tree_star_out(), _terminals(host))
    got = expand_symbolic(circ, max_vars=3, max_zdeg=3)
    assert got[((0, 1, 2), 1)] == 2


def test_expand_guard():
    host = make_instance(7, [(0, 1)], facilities={0}, ploughs={})
    circ = build_circuit(host, _tree_edge_down(), _terminals(host))
    with pytest.raises(ValueError, match="guard"):
        expand_symbolic(circ, 5, 5)


def _random_host(rng, n, max_arcs):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = rng.sample(pairs, k=rng.randint(0, min(max_arcs, len(pairs))))
    fac = set(rng.sample(range(n), k=rng.randint(0, min(2, n))))
    ploughs = {v: rng.randint(0, 2) for v in rng.sample(range(n), k=min(n, 2)) if n > 1}
    ploughs = {v: min(b, n - 1) for v, b in ploughs.items()}
    return make_instance(n, arcs, fac, ploughs)


def _all_orientations(max_order):
    """Every orientation of every free tree of order 1..max_order, in stream order."""
    return [
        cand
        for order in range(1, max_order + 1)
        for tree in enumerate_free_trees(order)
        for cand in orient_tree(tree, dedupe=False)
    ]


def test_gate_count_bound():
    rng = random.Random(5)
    for n in (5, 10, 20, 30):
        host = _random_host(rng, n, 4 * n)
        for eta in (1, 3, min(7, n)):
            for tree in enumerate_free_trees(eta):
                cand = next(iter(orient_tree(tree)))
                circ = build_circuit(host, cand, _terminals(host))
                assert len(circ.gates) <= n * (3 * eta - 2) + 1 <= CIRCUIT_SIZE_C * n**3


def test_circuit_is_monotone_and_topological():
    circ = build_circuit(*toy1_tpe())
    circ.validate()


def test_every_sum_feeds_a_product():
    """A pair that cannot be placed appends no gates, so every add gate but
    the output is read by its own pair's mul."""
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 6)
        host = _random_host(rng, n, 10)
        cand = rng.choice(_all_orientations(min(4, n)))
        circ = build_circuit(host, cand, _terminals(host))
        read = {g[2] for g in circ.gates if g[0] == "mul"}
        adds = {i for i, g in enumerate(circ.gates) if g[0] == "add"}
        assert adds - {circ.output} <= read


def test_every_gate_reaches_the_output():
    """Placements are arc consistent both ways, so no gate is left unread."""
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 6)
        host = _random_host(rng, n, 10)
        cand = rng.choice(_all_orientations(min(4, n)))
        circ = build_circuit(host, cand, _terminals(host))
        read = {circ.output}
        for i in reversed(range(len(circ.gates))):
            g = circ.gates[i]
            if i in read and g[0] != "x":
                read.update(g[1] if g[0] == "add" else g[1:])
        assert read == set(range(len(circ.gates))), (host, cand)


def _hand_circuit_two_x(var_a, var_b):
    """(z * x_a) * (z * x_b) with distinct x-gate occurrences."""
    gates = [("x", var_a, 0, 1), ("x", var_b, 1, 1), ("mul", 0, 1)]
    return Circuit(gates=gates, output=2, host_n=3, tree_order=2)


def test_eval_square_is_zero():
    circ = _hand_circuit_two_x(0, 0)
    for seed in range(30):
        assert eval_trial(circ, t=2, k=2, seed=seed) == 0
    assert not detect_zt_multilinear(circ, t=2, k=2, seed=7)


def test_eval_distinct_variables_survive_often():
    circ = _hand_circuit_two_x(0, 1)
    hits = sum(eval_trial(circ, t=2, k=2, seed=s) != 0 for s in range(200))
    assert hits / 200 >= 0.2


def test_toy1_detection():
    circ = build_circuit(*toy1_tpe())
    # z^2 x0 x2 exists
    assert detect_zt_multilinear(circ, t=2, k=2, seed=3)
    # z^1 x0 x1 exists as well
    assert detect_zt_multilinear(circ, t=1, k=2, seed=3)
    # no z^0 monomial: every tree vertex placement hits at least one terminal?
    # (expansion above shows only z^1 and z^2 terms)
    assert not detect_zt_multilinear(circ, t=0, k=2, seed=3)


def test_solve_tpe_examples():
    assert decide_tpe(*toy1_tpe(), seed=1)[0]

    host = make_instance(2, [(1, 0)], facilities={0, 1}, ploughs={1: 1})
    assert decide_tpe(host, _tree_edge_down(), _terminals(host), seed=1)[0]

    host_bad = make_instance(2, [(1, 0)], facilities={0, 1}, ploughs={0: 1})
    assert not decide_tpe(host_bad, _tree_edge_down(), _terminals(host_bad), seed=1)[0]


def test_solve_tpe_agrees_with_exact_oracle():
    from snowteam.exact import solve_tpe_exact

    rng = random.Random(11)
    checked_yes = checked_no = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        host = _random_host(rng, n, 10)
        eta = rng.randint(1, min(3, n))
        cands = list(candidate_stream(1, eta))
        cand = rng.choice([c for c in cands if c.order <= n])
        terminals = set(rng.sample(range(n), k=rng.randint(0, min(cand.order, n))))
        want = solve_tpe_exact(host, cand, terminals) is not None
        got = decide_tpe(host, cand, terminals, seed=17)[0]
        if want:
            checked_yes += 1
            assert got, (host, cand, terminals)
        else:
            checked_no += 1
            assert not got, (host, cand, terminals)
    assert checked_yes >= 5 and checked_no >= 5


def test_exact_embedding_respects_conditions():
    from snowteam.exact import solve_tpe_exact

    emb = solve_tpe_exact(*toy1_tpe())
    assert emb == {0: 0, 1: 2}

    host = make_instance(2, [(1, 0)], facilities={0, 1}, ploughs={0: 1})
    assert solve_tpe_exact(host, _tree_edge_down(), _terminals(host)) is None

    single = next(iter(orient_tree(next(iter(enumerate_free_trees(1))))))
    host2 = make_instance(2, [], facilities={1}, ploughs={})
    assert solve_tpe_exact(host2, single, _terminals(host2)) == {0: 1}


# {0, 1, 3} holds more terminals than the tree has vertices: decide_tpe checks
# the range before it answers NO for that
@pytest.mark.parametrize("terminals", [{3}, {0, -1}, {0, 1, 3}])
def test_terminals_outside_the_host_are_rejected(terminals):
    from snowteam.exact import solve_tpe_exact

    host = toy1_closure()
    with pytest.raises(ValueError, match="terminals outside host vertex range"):
        build_circuit(host, _tree_edge_down(), terminals)
    with pytest.raises(ValueError, match="terminals outside host vertex range"):
        solve_tpe_exact(host, _tree_edge_down(), terminals)
    with pytest.raises(ValueError, match="terminals outside host vertex range"):
        decide_tpe(host, _tree_edge_down(), terminals)


def test_solve_tpe_checks_terminals_before_a_tree_larger_than_the_host():
    host = toy1_closure()
    path = next(c for c in candidate_stream(1, 4) if c.order == 4)
    assert host.n < path.order
    assert not decide_tpe(host, path, {0})[0]
    with pytest.raises(ValueError, match="terminals outside host vertex range"):
        decide_tpe(host, path, {0, 99})


def test_detection_one_sided_on_certified_no_instances():
    from snowteam.exact import solve_tpe_exact

    rng = random.Random(41)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 5)
        host = _random_host(rng, n, 8)
        cand = rng.choice([c for c in candidate_stream(1, min(4, n)) if c.order <= n])
        terminals = set(rng.sample(range(n), k=rng.randint(0, min(cand.order, n))))
        if solve_tpe_exact(host, cand, terminals) is not None:
            continue
        circ = build_circuit(host, cand, terminals)
        seeds = range(checked * 1000, checked * 1000 + 8)
        assert all(eval_trial(circ, len(terminals), cand.order, s) == 0 for s in seeds), (
            host,
            cand,
            terminals,
        )
        checked += 1


def test_toy1_survival_frequency():
    circ = build_circuit(*toy1_tpe())
    hits = sum(eval_trial(circ, t=2, k=2, seed=s) != 0 for s in range(200))
    assert hits / 200 >= 0.2


def _reference_eval(circuit, zcap, k, seed):
    """Slow scalar evaluator: draws the same stream with numpy, then runs the
    circuit once per subset T of [k] in Python integers with gf_mul."""
    from snowteam.algebra import gf_mul

    rng = np.random.default_rng((seed % (1 << 63), 0))
    a = rng.integers(0, 1 << 64, size=(circuit.host_n, k), dtype=np.uint64)
    x_ids = circuit.x_gate_ids()
    rs = rng.integers(0, 1 << 64, size=len(x_ids), dtype=np.uint64)
    r_of = {gid: int(r) for gid, r in zip(x_ids, rs)}

    def zmul(p, q):
        out = [0] * (zcap + 1)
        for i, pi in enumerate(p):
            for j in range(zcap + 1 - i):
                out[i + j] ^= gf_mul(pi, q[j])
        return out

    total = 0
    for mask in range(1 << k):
        vals = []
        for gid, gate in enumerate(circuit.gates):
            kind = gate[0]
            val = [0] * (zcap + 1)
            if kind == "x" and gate[3] <= zcap:
                s = 0
                for j in range(k):
                    if mask >> j & 1:
                        s ^= int(a[gate[1], j])
                val[gate[3]] = gf_mul(r_of[gid], s)
            elif kind == "add":
                for c in gate[1]:
                    val = [u ^ v for u, v in zip(val, vals[c])]
            elif kind == "mul":
                val = zmul(vals[gate[1]], vals[gate[2]])
            vals.append(val)
        total ^= vals[circuit.output][zcap]
    return total


def _reference_cases():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randint(2, 4)
        host = _random_host(rng, n, 8)
        cand = rng.choice(_all_orientations(min(3, n)))
        terminals = set(rng.sample(range(n), k=rng.randint(0, min(cand.order, n))))
        yield build_circuit(host, cand, terminals), len(terminals), cand.order
    # (z*x_0 + x_1) * (z*x_2 + x_3): both factors span two z-degrees
    gates = [
        ("x", 0, 0, 1),
        ("x", 1, 0, 0),
        ("add", (0, 1)),
        ("x", 2, 1, 1),
        ("x", 3, 1, 0),
        ("add", (3, 4)),
        ("mul", 2, 5),
    ]
    yield Circuit(gates=gates, output=6, host_n=4, tree_order=2), 1, 2
    # trees of order 4 and 5 on hosts of order 5 with 15 arcs and ploughs
    # everywhere, at a z-degree below the terminal count
    rng = random.Random(78)
    pairs = [(u, v) for u in range(5) for v in range(5) if u != v]
    for _ in range(6):
        ploughs = {v: rng.randint(1, 2) for v in range(5)}
        host = make_instance(5, rng.sample(pairs, 15), set(), ploughs)
        cand = rng.choice([c for c in _all_orientations(5) if c.order >= 4])
        terminals = set(rng.sample(range(5), k=rng.randint(2, 3)))
        t = rng.randint(1, len(terminals) - 1)
        yield build_circuit(host, cand, terminals), t, rng.choice((cand.order - 1, cand.order))
    # one mul level holding z^2 x0x1 (degree 2 only), z x0x2 + z^2 x0x3
    # (degrees 1 and 2), x2^2 + z x2x3 (degrees 0 and 1) and z^3 x0x4, past
    # z^t for t <= 2; the output multiplies their sum by x5 + z x6
    gates = [
        ("x", 0, 0, 1),
        ("x", 1, 1, 1),
        ("x", 2, 1, 0),
        ("x", 3, 1, 1),
        ("add", (2, 3)),
        ("x", 4, 1, 2),
        ("mul", 0, 1),
        ("mul", 0, 4),
        ("mul", 0, 5),
        ("mul", 2, 4),
        ("add", (6, 7, 8, 9)),
        ("x", 5, 2, 0),
        ("x", 6, 2, 1),
        ("add", (11, 12)),
        ("mul", 10, 13),
    ]
    mixed = Circuit(gates=gates, output=14, host_n=7, tree_order=3)
    for t in (1, 2):
        yield mixed, t, 3


def test_engine_matches_reference_algebra_evaluation():
    """The vectorised engine agrees bit for bit with a scalar evaluator that
    runs the circuit once per subset T on the same randomness."""
    nonzero = 0
    for circ, t, k in _reference_cases():
        for seed in (1, 9):
            got = eval_trial(circ, t, k, seed)
            assert got == _reference_eval(circ, t, k, seed), (circ.gates, t, k, seed)
            nonzero += got != 0
    assert nonzero > 0


def test_subset_chunks_agree_with_one_chunk(monkeypatch):
    """Splitting the 2^k subsets over several chunks leaves every value unchanged."""
    cases = list(_reference_cases())
    whole = [eval_trial(circ, t, k, seed) for circ, t, k in cases for seed in (1, 9)]
    monkeypatch.setattr(tpe, "SUBSET_CHUNK", 2)
    assert any(k >= 2 for _, _, k in cases)
    assert [eval_trial(circ, t, k, seed) for circ, t, k in cases for seed in (1, 9)] == whole


def test_one_row_per_kernel_call_agrees_with_whole_levels(monkeypatch):
    """Splitting every batch into one call per coefficient row leaves every value unchanged."""
    cases = list(_reference_cases())
    rows_per_call = []
    kernel = tpe._clmul_reduce_arrays

    def counted(a, b):
        rows_per_call.append(len(a))
        return kernel(a, b)

    monkeypatch.setattr(tpe, "_clmul_reduce_arrays", counted)
    whole = [eval_trial(circ, t, k, seed) for circ, t, k in cases for seed in (1, 9)]
    whole_calls = len(rows_per_call)
    monkeypatch.setattr(tpe, "_sources_per_call", lambda zcap, lanes: 1)
    rows_per_call.clear()
    assert [eval_trial(circ, t, k, seed) for circ, t, k in cases for seed in (1, 9)] == whole
    assert len(rows_per_call) > whole_calls


@pytest.mark.parametrize("w, u", [(-1, 0), (5, 0), (0, -1), (0, 2)])
def test_gate_vertices_outside_their_ranges_are_rejected(monkeypatch, w, u):
    """x_{w,u} * x_{1,1} with host_n = tree_order = 2.  A negative host
    vertex used to read another host's row and return 0, a false "no
    embedding"; one past the host raised numpy's IndexError."""
    gates = [("x", w, u, 0), ("x", 1, 1, 0), ("mul", 0, 1)]
    circ = Circuit(gates=gates, output=2, host_n=2, tree_order=2)
    with pytest.raises(ValueError, match="malformed gate 0"):
        circ.validate()
    monkeypatch.setattr(np.random, "default_rng", lambda *_: pytest.fail("drew randomness"))
    with pytest.raises(ValueError, match="malformed gate 0"):
        eval_trial(circ, t=0, k=2, seed=1)


@pytest.mark.parametrize(
    "gates, output",
    [
        ([("x", 0, 0, -1)], 0),
        ([("x", 0, 0, 0), ("add", (0, 1))], 1),
        ([("x", 0, 0, 0), ("mul", 0, 2)], 1),
        ([("x", 0, 0, 0), ("sub", 0, 0)], 1),
    ],
)
def test_malformed_gates_are_rejected(gates, output):
    circ = Circuit(gates=gates, output=output, host_n=2, tree_order=2)
    with pytest.raises(ValueError, match="malformed gate"):
        eval_trial(circ, t=0, k=1, seed=1)


def test_output_outside_the_gates_is_rejected():
    circ = Circuit(gates=[("x", 0, 0, 0)], output=1, host_n=2, tree_order=2)
    with pytest.raises(ValueError, match="output 1 is not a gate"):
        eval_trial(circ, t=0, k=1, seed=1)


def test_placements_keep_every_injective_embedding_and_are_the_x_gates():
    """Brute force over every injective map of every candidate of order <= 4
    into seeded random hosts: an embedding (arcs and capacities respected)
    keeps each of its placements, and the circuit has exactly one x-gate per
    placement.  The same holds under a pin, a random terminal set, for the
    embeddings that put every tree vertex of in-degree <= 1 on a terminal;
    a pin of every host vertex changes no placement."""
    rng = random.Random(2210)
    pin_rng = random.Random(2211)
    embeddings = pinned = narrowed = 0
    for _ in range(20):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(n - 1, min(3 * n, len(pairs))))
        host = make_instance(n, arcs, set(), {v: rng.randint(0, min(2, n - 1)) for v in range(n)})
        terminals = frozenset(pin_rng.sample(range(n), pin_rng.randint(1, n)))
        pin = sum(1 << w for w in terminals)
        for cand in _all_orientations(min(4, n)):
            dom = placements(host, cand)
            assert placements(host, cand, (1 << n) - 1) == dom
            low = [u for u in range(cand.order) if sum(b == u for _, b in cand.arcs) <= 1]
            kept = placements(host, cand, pin)
            narrowed += kept != dom
            for phi in itertools.permutations(range(n), cand.order):
                if all((phi[a], phi[b]) in host.arcs for a, b in cand.arcs) and all(
                    d <= host.ploughs[w] for d, w in zip(cand.demand, phi)
                ):
                    embeddings += 1
                    assert all(dom[u] >> w & 1 for u, w in enumerate(phi)), (cand, phi)
                    if all(phi[u] in terminals for u in low):
                        pinned += 1
                        assert all(kept[u] >> w & 1 for u, w in enumerate(phi)), (cand, phi)
            for pinning, want in ((None, dom), (pin, kept)):
                circ = build_circuit(host, cand, frozenset(), pinning)
                xs = sorted(circ.gates[g][1:3] for g in circ.x_gate_ids())
                assert xs == sorted((w, u) for u in range(cand.order) for w in bits(want[u]))
    assert embeddings > 1000 and pinned > 50 and narrowed > 100


def _arc_ends(host):
    """(heads, tails): per host vertex, the mask of its arcs' heads and of
    its arcs' tails, read off ``host.arcs``."""
    heads, tails = [0] * host.n, [0] * host.n
    for u, v in host.arcs:
        heads[u] |= 1 << v
        tails[v] |= 1 << u
    return heads, tails


def _across(mask, ends):
    """Host vertices one arc from mask's vertices, ends being ``_arc_ends``'
    heads (forwards) or tails (backwards)."""
    out = 0
    for w, row in enumerate(ends):
        if mask >> w & 1:
            out |= row
    return out


def _scanned_placements(host, tree, pin=None, onto=None):
    """``placements`` from a scan of every host vertex for every tree vertex,
    refined by arc consistency run to its fixpoint, with neighbour sets
    read off the arcs: the oracle for the threshold rows and the two-pass
    refinement."""
    tout = [sum(a == u for a, _ in tree.arcs) for u in range(tree.order)]
    tin = [sum(b == u for _, b in tree.arcs) for u in range(tree.order)]
    dom = []
    for u in range(tree.order):
        m = sum(
            1 << w
            for w in range(host.n)
            if tree.demand[u] <= host.ploughs[w]
            and tout[u] <= host.out_mask[w].bit_count()
            and tin[u] <= host.in_mask[w].bit_count()
        )
        if pin is not None and tin[u] <= 1:
            m &= pin
        if onto is not None:
            m &= onto
        dom.append(m)
    heads, tails = _arc_ends(host)
    changed = True
    while changed:
        before = list(dom)
        for a, b in tree.arcs:
            dom[a] &= _across(dom[b], tails)
            dom[b] &= _across(dom[a], heads)
        changed = dom != before
    return [0] * tree.order if not all(dom) else dom


def test_threshold_rows_match_the_vertex_scan():
    """Threshold-row starting domains, refined, equal the scanned ones on
    random hosts, no pin, the normal-form pin and the onto pin: on n 1-6
    every tree up to order 6, also those larger than the host (whose counts
    can read the empty rows past n - 1), on n 7-10 a sample of the trees up
    to order 7."""
    rng = random.Random(2290)
    cands = _all_orientations(7)
    nonempty = wide = 0
    for i in range(56):
        n = rng.randint(1, 6) if i < 40 else rng.randint(7, 10)
        host = _random_host(rng, n, 3 * n)
        pays, outs, ins = host.thresholds
        for j in range(n + 1):
            assert pays[j] == sum(1 << w for w in range(n) if host.ploughs[w] >= j)
            assert outs[j] == sum(1 << w for w in range(n) if host.out_mask[w].bit_count() >= j)
            assert ins[j] == sum(1 << w for w in range(n) if host.in_mask[w].bit_count() >= j)
        mask, other = rng.randrange(1 << n), rng.randrange(1 << n)
        if n <= 6:
            drawn = [c for c in cands if c.order <= 6]
        else:
            drawn = rng.sample(cands, 150)
        for cand in drawn:
            for pin, onto in ((None, None), (mask, None), (None, other), (mask, other)):
                got = placements(host, cand, pin, onto)
                assert got == _scanned_placements(host, cand, pin, onto), (host, cand, pin, onto)
                nonempty += bool(got[0])
                wide += n > 6 and bool(got[0])
    assert nonempty >= 1000 and wide >= 300


def test_onto_pin_keeps_every_embedding_of_a_tree_on_the_terminals():
    """A tree with as many vertices as terminals embeds, covering them, only
    onto them: each embedding the brute force finds maps into the terminals,
    keeps every placement under the onto pin (alone and with the normal-form
    pin), passes the filter and is detected.  Where the brute force finds
    none, the pinned detection finds none either.  Hosts are cyclic and
    acyclic."""
    rng = random.Random(2291)
    cands = [c for c in _all_orientations(5) if c.order >= 2]
    found = missing = 0
    for i in range(24):
        n = rng.randint(3, 7)
        if i % 2:
            perm = rng.sample(range(n), n)
            pairs = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)]
        else:
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(n, min(3 * n, len(pairs))))
        host = make_instance(n, arcs, set(), {v: rng.randint(0, 2) for v in range(n)})
        for cand in rng.sample(cands, 12):
            if cand.order > n:
                continue
            terminals = frozenset(rng.sample(range(n), cand.order))
            mask = sum(1 << w for w in terminals)
            phi = solve_tpe_exact(host, cand, terminals)
            circuit = build_circuit(host, cand, terminals, onto=mask)
            detected = detect_zt_multilinear(circuit, len(terminals), cand.order, seed=i)
            if phi is None:
                assert not detected, (host, cand, terminals)
                missing += 1
                continue
            found += 1
            assert set(phi.values()) == terminals
            for pin in (None, mask):
                dom = placements(host, cand, pin, mask)
                assert all(dom[u] >> w & 1 for u, w in phi.items()), (host, cand, phi)
            assert _candidate_feasible(host, cand, terminals, mask, mask)
            assert detected, (host, cand, terminals)
    assert found >= 50 and missing >= 80, (found, missing)


def _is_embedding(host, tree, terminals, dom, phi):
    """phi, tree vertex u on host vertex phi[u], is injective, lies within
    dom, keeps every tree arc as a host arc, pays every demand and covers
    every terminal."""
    return (
        len(phi) == tree.order == len(set(phi))
        and terminals <= set(phi)
        and all(dom[u] >> w & 1 and tree.demand[u] <= host.ploughs[w] for u, w in enumerate(phi))
        and all((phi[a], phi[b]) in host.arcs for a, b in tree.arcs)
    )


def test_embed_agrees_with_the_brute_force_the_detection_and_the_placements():
    """On seeded hosts, cyclic and acyclic, n 2-8, and trees up to order 5:
    the survivor search finishes within its budget, finds an embedding
    exactly when the brute force does, and decides as the detection does
    under no pin, the normal-form pin and the onto pin.  Each map it returns
    is an embedding within the scanned placements, and an empty scanned
    domain is a NO."""
    rng = random.Random(2300)
    cands = _all_orientations(5)
    tally = {"yes": 0, "no": 0, "pinned yes": 0, "pinned no": 0, "onto": 0}
    for i in range(40):
        n = rng.randint(2, 8)
        if i % 2:
            perm = rng.sample(range(n), n)
            pairs = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)]
        else:
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(n - 1, min(3 * n, len(pairs))))
        host = make_instance(n, arcs, set(), {v: rng.randint(0, min(2, n - 1)) for v in range(n)})
        for cand in rng.sample(cands, 10):
            terminals = frozenset(rng.sample(range(n), rng.randint(0, min(n, cand.order))))
            mask = sum(1 << w for w in terminals)
            want = solve_tpe_exact(host, cand, terminals)
            got = embed(host, cand, terminals, placements(host, cand))
            assert got is not None and bool(got) == (want is not None), (host, cand, terminals)
            tally["yes" if got else "no"] += 1
            onto = mask if cand.order == len(terminals) else None
            tally["onto"] += onto is not None
            for pin in (None, mask):
                dom = _scanned_placements(host, cand, pin, onto)
                got = embed(host, cand, terminals, placements(host, cand, pin, onto))
                assert got is not None
                if got:
                    assert _is_embedding(host, cand, terminals, dom, got), (host, cand, got)
                elif not dom[0]:
                    assert got is False
                circuit = build_circuit(host, cand, terminals, pin, onto)
                detected = detect_zt_multilinear(circuit, len(terminals), cand.order, seed=i)
                assert detected == bool(got), (host, cand, terminals, pin, onto)
                if pin is not None:
                    tally["pinned yes" if got else "pinned no"] += 1
    assert min(tally["yes"], tally["no"], tally["pinned no"]) >= 100, tally
    assert min(tally["pinned yes"], tally["onto"]) >= 20, tally


def test_embed_gives_up_only_past_its_budget(monkeypatch):
    """The search counts the placements it tries, against ``SEARCH_BUDGET``
    read at the call: with fewer than it needs it answers None, with as many
    it decides.  A tree with no placement is a NO at any budget."""
    # the root goes on 0; the child tries 1, which leaves terminal 2
    # uncovered, then 2: three placements
    host, tree, terminals = toy1_tpe()
    dom = placements(host, tree)
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 2)
    assert embed(host, tree, terminals, dom) is None
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 3)
    assert embed(host, tree, terminals, dom) == (0, 2)
    # no host vertex pays the root's demand: every domain is empty
    unploughed = make_instance(3, [(0, 1), (1, 2)], {0, 2}, {})
    assert placements(unploughed, tree)[0] == 0
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 0)
    assert embed(unploughed, tree, terminals, placements(unploughed, tree)) is False
    # both domains are {0, 2} and {1, 3}, but one arc cannot cover the
    # terminals 1 and 3: the search tries both roots, cuts each, proves NO
    split = make_instance(4, [(0, 1), (2, 3)], {1, 3}, {0: 1, 2: 1})
    assert placements(split, tree) == [0b0101, 0b1010]
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 1)
    assert embed(split, tree, frozenset({1, 3}), placements(split, tree)) is None
    monkeypatch.setattr(tpe, "SEARCH_BUDGET", 2)
    assert embed(split, tree, frozenset({1, 3}), placements(split, tree)) is False
    with pytest.raises(ValueError, match="terminals outside"):
        embed(host, tree, frozenset({3}), dom)


def _direct_polynomial(host, tree, terminals, max_vars, max_zdeg):
    """Unshared recursive expansion of the defining product-of-sums formulas,
    with the degree test of ``tpe.placements``."""
    und = {v: [] for v in range(tree.order)}
    arcset = set(tree.arcs)
    succ = [sorted(x for w, x in host.arcs if w == u) for u in range(host.n)]
    pred = [sorted(w for w, x in host.arcs if x == u) for u in range(host.n)]
    for u, v in tree.arcs:
        und[u].append(v)
        und[v].append(u)

    def poly_mul(a, b):
        out = {}
        for (va, za), ca in a.items():
            for (vb, zb), cb in b.items():
                if za + zb > max_zdeg or len(va) + len(vb) > max_vars:
                    continue
                key = (tuple(sorted(va + vb)), za + zb)
                out[key] = out.get(key, 0) + ca * cb
        return {k: v for k, v in out.items() if v}

    def poly_add(ps):
        out = {}
        for p in ps:
            for k, v in p.items():
                out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def q(u, w, parent):
        if tree.demand[u] > host.ploughs[w]:
            return {}
        if sum(a == u for a, _ in tree.arcs) > len(succ[w]):
            return {}  # only maps that are not injective place u on w
        if sum(b == u for _, b in tree.arcs) > len(pred[w]):
            return {}
        ze = 1 if w in terminals else 0
        acc = {((w,), ze): 1}
        for v in und[u]:
            if v == parent:
                continue
            if (v, u) in arcset:
                branch = poly_add([q(v, wp, u) for wp in pred[w]])
            else:
                branch = poly_add([q(v, wp, u) for wp in succ[w]])
            acc = poly_mul(acc, branch)
        return acc

    return poly_add([q(0, w, -1) for w in range(host.n)])


def test_shared_dag_matches_unshared_expansion():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        host = _random_host(rng, n, 12)
        cand = rng.choice(_all_orientations(min(4, n)))
        terminals = set(rng.sample(range(n), k=rng.randint(0, 2)))
        circ = build_circuit(host, cand, terminals)
        assert expand_symbolic(circ, 6, 6) == _direct_polynomial(host, cand, terminals, 6, 6)
