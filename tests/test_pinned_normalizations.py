"""Pinned walk normalizations: ``normalize_to_tree_like`` against a committed file.

Each case is a seeded restricted instance (n 3..8, ploughs on facilities),
a verifying walk system on its transitive closure and the normalized walks.
The inputs are oracle witnesses (``solve_st_exact`` on closures of at most 14
arcs) and random verifying walk systems drawn by ``random_verifying_walks``
on closures of up to 56 arcs, most of which the normalization rewrites.  The
file carries the instance and the input walks, so the check reads them from
there; a change meant to keep every normalized output must leave this file
alone, and one meant to alter them regenerates it with

    PYTHONPATH=src python3 tests/test_pinned_normalizations.py --write
"""

import json
import random
import sys
from pathlib import Path

from snowteam.digraph import make_instance, transitive_closure, walks_from_lists
from snowteam.exact import solve_st_exact
from snowteam.selfcheck import random_verifying_walks
from snowteam.solvers import _candidate_feasible, normalize_to_tree_like
from snowteam.trees import candidate_stream

PINNED = Path(__file__).resolve().parent / "pinned_normalizations.json"


def _instance(case):
    return make_instance(
        case["n"],
        [tuple(a) for a in case["arcs"]],
        set(case["facilities"]),
        case["ploughs"],
    )


def _normalized(case) -> list[list[int]]:
    closed = transitive_closure(_instance(case))
    out = normalize_to_tree_like(closed, walks_from_lists(case["walks"]))
    return [list(w.vertices) for w in out.walks]


def _random_restricted(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = sorted(rng.sample(pairs, k=rng.randint(n - 1, min(2 * n, len(pairs)))))
    fac = sorted(rng.sample(range(n), k=rng.randint(2, min(4, n))))
    ploughs = [0] * n
    for _ in range(rng.randint(1, 4)):
        v = rng.choice(fac)
        ploughs[v] = min(ploughs[v] + 1, n - 1)
    return {"n": n, "arcs": [list(a) for a in arcs], "facilities": fac, "ploughs": ploughs}


def _cases() -> dict:
    """60 oracle witnesses, then 240 random verifying walk systems."""
    cases = {}
    rng = random.Random(20261019)
    while len(cases) < 60:
        case = _random_restricted(rng, rng.randint(3, 6))
        closed = transitive_closure(_instance(case))
        if len(closed.arcs) > 14:
            continue
        ans, witness = solve_st_exact(closed)
        if ans:
            case["walks"] = [list(w.vertices) for w in witness.walks]
            cases[f"oracle{len(cases):03d}"] = case
    walk_rng = random.Random(20261020)
    drawn = 0
    while drawn < 240:
        case = _random_restricted(rng, rng.randint(3, 8))
        sol = random_verifying_walks(walk_rng, transitive_closure(_instance(case)))
        if sol is not None:
            case["walks"] = [list(w.vertices) for w in sol.walks]
            cases[f"random{drawn:03d}"] = case
            drawn += 1
    for case in cases.values():
        case["normalized"] = _normalized(case)
    return cases


def test_normalizations_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    assert len(pinned) == 300
    diff = {
        name: (case["normalized"], got)
        for name, case in pinned.items()
        if (got := _normalized(case)) != case["normalized"]
    }
    assert not diff, f"normalizations differ from {PINNED.name} (pinned, got): {diff}"


def _tree_key(arcs) -> str:
    """Directed-isomorphism invariant of a tree given by its arcs: the least
    nested code over every root, a child's code tagged by its arc's
    direction."""
    nbrs: dict[int, list[tuple[int, str]]] = {}
    for a, b in arcs:
        nbrs.setdefault(a, []).append((b, "d"))
        nbrs.setdefault(b, []).append((a, "u"))

    def code(v, parent):
        return "(" + "".join(sorted(d + code(c, v) for c, d in nbrs[v] if c != parent)) + ")"

    return min(code(r, None) for r in nbrs)


def test_normalized_witnesses_are_normal_form_candidates():
    """Each normalized walk system's union tree is, up to directed
    isomorphism, a candidate of the normal-form stream (sources = |F|,
    orders up to 2|F|-1, demand within the ploughs), and the filter passes
    that candidate on the closure under the facility pin."""
    pinned = json.loads(PINNED.read_text())
    for name, case in pinned.items():
        inst = _instance(case)
        fac = inst.facilities()
        arcs = {(w[i], w[i + 1]) for w in case["normalized"] for i in range(len(w) - 1)}
        key = _tree_key(arcs)
        stream = candidate_stream(
            len(fac), min(2 * len(fac) - 1, inst.n), inst.total_ploughs(), sources=len(fac)
        )
        cand = next((c for c in stream if _tree_key(c.arcs) == key), None)
        assert cand is not None, name
        pin = sum(1 << f for f in fac)
        assert _candidate_feasible(transitive_closure(inst), cand, fac, pin), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = sorted(_cases().items())
    rewritten = sum(case["walks"] != case["normalized"] for _, case in rows)
    print(f"{len(rows)} cases, {rewritten} rewritten")
    PINNED.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n"
    )
