"""Acceptance checks, runnable via the CLI ``selftest`` or the test suite.

Each check returns (ok, detail) and is registered under a short name; the
driver prints one PASS/FAIL line per check.  All randomness is seeded, so a
passing suite passes identically on every run.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb

import numpy as np

from .algebra import _clmul_reduce_arrays, gf_mul
from .digraph import (
    bits,
    condense,
    make_instance,
    sources,
    transitive_closure,
    verify_st_solution,
    walks_from_lists,
)
from .exact import solve_st_exact, solve_tpe_exact, solve_variant_exact
from .gadgets import (
    SetCoverInstance,
    build_gadget,
    gen_fig3,
    solve_set_cover_exact,
    walks_to_cover,
)
from .solvers import (
    SolveParams,
    is_tree_like,
    normalize_to_tree_like,
    solve_min_st,
    solve_st,
    solve_stu,
)
from .tpe import (
    CIRCUIT_SIZE_C,
    Circuit,
    build_circuit,
    eval_trial,
    expand_symbolic,
)
from .trees import FREE_TREE_COUNTS, candidate_stream, enumerate_free_trees, orient_tree

SAMPLE_COVER = SetCoverInstance(
    n_items=5, sets=((1, 3, 4), (2, 3), (2, 4, 5), (3, 4, 5)), k=2
)


def _random_simple_digraph(rng, n, max_arcs, max_fac, max_kb):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = rng.sample(pairs, k=rng.randint(0, min(max_arcs, len(pairs))))
    fac = set(rng.sample(range(n), k=rng.randint(0, min(max_fac, n))))
    ploughs: dict[int, int] = {}
    for _ in range(rng.randint(0, max_kb)):
        v = rng.randrange(n)
        if ploughs.get(v, 0) < n - 1:
            ploughs[v] = ploughs.get(v, 0) + 1
    return make_instance(n, arcs, fac, ploughs)


def check_gadget_equivalence() -> tuple[bool, str]:
    """Every set system with <= 4 items, <= 3 sets: clearing the gadget is
    solvable exactly when a size-k cover exists, and the exact witness of
    every solvable gadget reads back as a cover of at most k sets."""
    cases = read = 0
    for n in range(1, 5):
        items = list(range(1, n + 1))
        nonempty = [
            tuple(s) for r in range(1, n + 1) for s in itertools.combinations(items, r)
        ]
        for m in range(1, 4):
            for family in itertools.combinations(nonempty, m):
                if set().union(*map(set, family)) != set(items):
                    continue
                for k in range(1, m + 1):
                    sc = SetCoverInstance(n, family, k)
                    g = build_gadget(sc)
                    gadget_yes, witness = solve_st_exact(g.instance)
                    cover_yes = solve_set_cover_exact(sc) is not None
                    if gadget_yes != cover_yes:
                        return False, f"disagreement on {family} k={k}"
                    if gadget_yes:
                        cover = walks_to_cover(g, witness)
                        if not sc.is_cover(cover) or len(cover) > k:
                            return False, f"witness on {family} k={k} reads as {cover}"
                        read += 1
                    cases += 1
    return True, f"{cases} gadget/cover pairs agree, {read} witnesses read back as covers"


def check_sample_gadget_numbers() -> tuple[bool, str]:
    """The 5-item/4-set sample: order 52, 13 sources and ploughs; solvable at
    budget 2 but not at budget 1."""
    g = build_gadget(SAMPLE_COVER)
    inst = g.instance
    if inst.n != 52:
        return False, f"order {inst.n} != 52"
    if len(sources(inst)) != 13 or inst.total_ploughs() != 13:
        return False, "source or plough count off"
    exact_params = SolveParams(exact_threshold=64)
    if not solve_st(inst, exact_params).answer:
        return False, "budget-2 gadget should be solvable"
    g1 = build_gadget(SetCoverInstance(5, SAMPLE_COVER.sets, 1))
    if solve_st(g1.instance, exact_params).answer:
        return False, "budget-1 gadget should not be solvable"
    return True, "order 52, 13 sources, k_B=13, budget 2 yes / budget 1 no"


def check_pipeline_vs_oracle() -> tuple[bool, str]:
    """500 random instances: the randomized pipeline agrees with the search
    oracle; reported failure bounds stay below 1e-3.  At least 200 hosts
    must have a cycle, so the condensation step stays exercised."""
    rng = random.Random(20260809)
    yes = no = condensed = collapsed = 0
    for i in range(500):
        inst = _random_simple_digraph(rng, rng.randint(2, 6), 10, 3, 3)
        host = condense(inst)
        condensed += host is not inst
        collapsed += len(host.facilities()) <= 1 < len(inst.facilities())
        want, _ = solve_st_exact(inst)
        rep = solve_st(inst, SolveParams(seed=1 + i))
        if rep.failure_bound >= 1e-3:
            return False, f"failure bound {rep.failure_bound:.2e} too large on case {i}"
        if rep.answer != want:
            return False, f"disagreement on case {i}: pipeline={rep.answer} oracle={want}"
        yes += want
        no += not want
    if condensed < 200:
        return False, f"only {condensed} of 500 hosts have a cycle to condense"
    return True, (
        f"500 instances agree ({yes} yes / {no} no; {condensed} condense, "
        f"{collapsed} to one facility component)"
    )


def _conformance_patterns(n):
    one = min(1, n - 1)
    two = min(2, n - 1)
    yield {0}, {0: one}
    if n >= 2:
        yield {0, n - 1}, {1: two}
        yield set(), {0: two, n - 1: one}
    else:
        yield {0}, {}
        yield set(), {}


def check_embedding_conformance() -> tuple[bool, str]:
    """Exhaustive small hosts and patterns: the expansion has a full-degree
    multilinear monomial at z-degree |terminals| exactly when an embedding
    exists."""
    cands = [c for c in candidate_stream(1, 3)]
    cases = 0
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for r in range(0, min(5, len(pairs)) + 1):
            for arcs in itertools.combinations(pairs, r):
                patterns = list(_conformance_patterns(n))
                fac, ploughs = patterns[(len(arcs) + r) % len(patterns)]
                host = make_instance(n, arcs, fac, ploughs)
                terminals = host.facilities() | host.bases()
                for cand in cands:
                    if cand.order > n:
                        continue
                    poly = expand_symbolic(build_circuit(host, cand, terminals), 4, 4)
                    has_monomial = any(
                        z == len(terminals) and len(vs) == cand.order and len(set(vs)) == cand.order
                        for (vs, z), coef in poly.items()
                        if coef != 0
                    )
                    embeds = solve_tpe_exact(host, cand, terminals) is not None
                    if has_monomial != embeds:
                        return False, f"mismatch on n={n} arcs={arcs} tree={cand.code_str()}"
                    cases += 1
    return True, f"{cases} host/tree pairs conform"


def _x_product(hosts: list[int]) -> Circuit:
    """Circuit for x_{hosts[0],0} * x_{hosts[1],1} * ... (no z)."""
    gates = [("x", hosts[0], 0, 0)]
    for u, w in enumerate(hosts[1:], start=1):
        gates.append(("x", w, u, 0))
        gates.append(("mul", len(gates) - 2, len(gates) - 1))
    n = len(hosts)
    return Circuit(gates=gates, output=len(gates) - 1, host_n=n, tree_order=n)


def check_algebra_kernels() -> tuple[bool, str]:
    """The vector field kernel matches gf_mul on 8000 random pairs and every
    pair of edge words, carry-stress words included; for every k <= 8, a
    product of k x-gates fingerprints to zero whenever two gates share a host
    vertex and to nonzero when all are distinct."""
    rng = random.Random(64)
    edges = [0, 1, 2, 0x1B, 1 << 63, (1 << 64) - 1]
    # words that fill the kernel's bit classes, so its integer products reach
    # their largest column counts
    edges += [0x1111111111111111, 0x2222222222222222, 0x8888888888888888]
    edges += [0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 0xFFFFFFFF00000000, 0xFFFFFFFF]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(8000)]
    a, b = (np.array(col, dtype=np.uint64) for col in zip(*pairs))
    for (x, y), got in zip(pairs, _clmul_reduce_arrays(a, b).tolist()):
        if got != gf_mul(x, y):
            return False, f"vector product of {x:#x} and {y:#x} is {got:#x}"
    shared = 0
    for k in range(1, 9):
        if eval_trial(_x_product(list(range(k))), 0, k, seed=k) == 0:
            return False, f"distinct hosts vanish at k={k}"
        for i, j in itertools.combinations(range(k), 2):
            hosts = list(range(k))
            hosts[j] = i
            if eval_trial(_x_product(hosts), 0, k, seed=k) != 0:
                return False, f"gates {i} and {j} on one host survive at k={k}"
            shared += 1
    return True, f"{len(pairs)} products match gf_mul; {shared} shared-host products vanish, k<=8"


def _rejects_rate_tenth(hits: int) -> bool:
    """P(X >= hits) < 0.01 for X ~ Binomial(200, 1/10), in exact integers."""
    return 100 * sum(comb(200, i) * 9 ** (200 - i) for i in range(hits, 201)) < 10**200


def check_detection_power() -> tuple[bool, str]:
    """On 20 instances with a certified embedding, single trials, one per
    seed, succeed at a rate of at least 0.2 (and reject per-trial rate 0.1 at
    99% confidence)."""
    rng = random.Random(99)
    collected = 0
    worst = 1.0
    while collected < 20:
        n = rng.randint(2, 6)
        host = _random_simple_digraph(rng, n, 10, 2, 2)
        cands = [c for c in candidate_stream(1, min(4, n)) if c.order <= n]
        cand = rng.choice(cands)
        terminals = set(rng.sample(range(n), k=rng.randint(0, min(cand.order, 2))))
        if solve_tpe_exact(host, cand, terminals) is None:
            continue
        circuit = build_circuit(host, cand, terminals)
        seeds = range(1000 + 200 * collected, 1200 + 200 * collected)
        hits = sum(eval_trial(circuit, len(terminals), cand.order, s) != 0 for s in seeds)
        freq = hits / 200
        worst = min(worst, freq)
        if freq < 0.2:
            return False, f"success frequency {freq:.3f} below 0.2"
        if not _rejects_rate_tenth(hits):
            return False, f"cannot reject per-trial rate 0.1 ({hits}/200)"
        collected += 1
    return True, f"20 embedded instances, worst frequency {worst:.3f}"


#: directed trees on 1..9 vertices up to isomorphism (OEIS A000238)
ORIENTED_TREE_COUNTS = (1, 1, 3, 8, 27, 91, 350, 1376, 5743)


def check_tree_counts() -> tuple[bool, str]:
    """Known counts of unrooted trees and of their orientation classes for
    orders 1..9; all orientations enumerated for orders up to 8."""
    for order in range(1, 10):
        trees = list(enumerate_free_trees(order))
        classes = sum(1 for t in trees for _ in orient_tree(t, dedupe=True))
        want = (FREE_TREE_COUNTS[order - 1], ORIENTED_TREE_COUNTS[order - 1])
        if (len(trees), classes) != want:
            return False, f"order {order}: {len(trees)} trees, {classes} classes, expected {want}"
        if order < 9 and any(sum(1 for _ in orient_tree(t)) != 2 ** (order - 1) for t in trees):
            return False, f"order {order}: not 2^(order-1) orientations per tree"
    return True, "trees 1,1,1,2,3,6,11,23,47; classes 1,1,3,8,27,91,350,1376,5743"


def check_circuit_size() -> tuple[bool, str]:
    """Gate count stays within the documented cubic ceiling on random hosts."""
    rng = random.Random(7)
    biggest = 0
    for n in (5, 10, 20, 30):
        host = _random_simple_digraph(rng, n, 3 * n, 3, 3)
        terminals = host.facilities() | host.bases()
        for eta in range(1, min(7, n) + 1):
            for tree in enumerate_free_trees(eta):
                cand = next(iter(orient_tree(tree)))
                circ = build_circuit(host, cand, terminals)
                bound = n * (3 * eta - 2) + 1
                if not len(circ.gates) <= bound <= CIRCUIT_SIZE_C * n**3:
                    return False, f"gate bound violated at n={n} eta={eta}"
                biggest = max(biggest, len(circ.gates))
    return True, f"all circuits within {CIRCUIT_SIZE_C}*n^3 gates (largest {biggest})"


def random_verifying_walks(rng, closed):
    """A verifying walk system on ``closed`` drawn at random, or None after
    50 misses: one walk per plough from its base, each step along a
    random arc, up to n steps."""
    for _ in range(50):
        walks = []
        for b in sorted(closed.bases()):
            for _ in range(closed.ploughs[b]):
                w = [b]
                for _ in range(rng.randint(0, closed.n)):
                    if not (nexts := bits(closed.out_mask[w[-1]])):
                        break
                    w.append(rng.choice(nexts))
                walks.append(w)
        sol = walks_from_lists(walks)
        if verify_st_solution(closed, sol)[0]:
            return sol
    return None


def check_walk_normalization() -> tuple[bool, str]:
    """100 oracle witnesses and 100 random verifying walk systems on
    transitively closed restricted instances normalize to verifying
    tree-like path systems of bounded order with the same starts, in normal
    form: in the union tree every vertex that is no facility has in-degree
    at least 2 and out-degree at most its in-degree."""
    rng = random.Random(31)
    walk_rng = random.Random(32)
    witnesses = drawn = rewritten = 0
    while witnesses < 100 or drawn < 100:
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(1, min(8, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(1, min(3, n))))
        ploughs: dict[int, int] = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(sorted(fac))
            if ploughs.get(v, 0) < n - 1:
                ploughs[v] = ploughs.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, ploughs)
        closed = transitive_closure(inst)
        if sum(map(int.bit_count, closed.out_mask)) > 14:
            continue
        ans, witness = solve_st_exact(closed)
        if not ans:
            continue
        inputs = []
        if witnesses < 100:
            inputs.append(witness)
            witnesses += 1
        if drawn < 100:
            sol = random_verifying_walks(walk_rng, closed)
            if sol is not None:
                inputs.append(sol)
                drawn += 1
        for sol in inputs:
            out = normalize_to_tree_like(closed, sol)
            ok, reason = verify_st_solution(closed, out)
            if not ok:
                return False, f"normalized output fails verification: {reason}"
            if not is_tree_like(out):
                return False, "output not tree-like"
            if sorted(w.start for w in out.walks) != sorted(w.start for w in sol.walks):
                return False, "start multiset changed"
            touched = {v for w in out.walks if w.length >= 1 for v in w.vertices}
            if len(fac) >= 2 and len(touched) > 2 * len(fac) - 1:
                return False, f"union tree order {len(touched)} exceeds bound"
            arcs = [a for w in out.walks for a in w.arcs()]
            for v in touched - fac:
                ins = sum(b == v for _, b in arcs)
                if ins < 2 or sum(a == v for a, _ in arcs) > ins:
                    return False, f"vertex {v} is no facility and breaks the normal form"
            rewritten += out != sol
    return True, (
        f"100 witnesses and 100 random walk systems normalized ({rewritten} rewritten), "
        "verified, bounded, in normal form"
    )


def check_zigzag_family() -> tuple[bool, str]:
    """The zigzag family needs n-1 ploughs: exact and randomized paths agree,
    for both the minimization and the free-placement decision."""
    for n in (3, 5):
        inst = gen_fig3(n)
        if solve_variant_exact(inst, "min-st") != n - 1:
            return False, f"exact minimum at n={n} is not {n - 1}"
        rep = solve_min_st(inst, SolveParams(seed=5))
        if rep.optimum != n - 1:
            return False, f"pipeline minimum at n={n}: {rep.optimum}"
    inst5 = gen_fig3(5)
    if not solve_variant_exact(inst5, "stu", k=4):
        return False, "exact free-placement with 4 ploughs should succeed"
    if solve_variant_exact(inst5, "stu", k=3):
        return False, "exact free-placement with 3 ploughs should fail"
    if not solve_stu(inst5, 4, SolveParams(seed=5)).answer:
        return False, "pipeline free-placement with 4 ploughs should succeed"
    if solve_stu(inst5, 3, SolveParams(seed=5)).answer:
        return False, "pipeline free-placement with 3 ploughs should fail"
    return True, "minimum n-1 at n=3,5; free placement 4 yes / 3 no at n=5"


CHECKS = [
    ("gadget-equivalence", check_gadget_equivalence),
    ("sample-gadget-numbers", check_sample_gadget_numbers),
    ("pipeline-vs-oracle", check_pipeline_vs_oracle),
    ("embedding-conformance", check_embedding_conformance),
    ("algebra-kernels", check_algebra_kernels),
    ("detection-power", check_detection_power),
    ("tree-counts", check_tree_counts),
    ("circuit-size", check_circuit_size),
    ("walk-normalization", check_walk_normalization),
    ("zigzag-family", check_zigzag_family),
]


def run_all(only: str | None = None) -> int:
    """Run every check, or only the named one; ValueError for an unknown name."""
    names = {name for name, _ in CHECKS}
    if only is not None and only not in names:
        raise ValueError(f"unknown check {only!r}; known: {sorted(names)}")
    failures = 0
    for name, fn in CHECKS:
        if only is not None and name != only:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"crashed: {e!r}"
        elapsed = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s]")
        failures += not ok
    return 0 if failures == 0 else 1
