"""Pinned fingerprints: ``eval_trial`` values of built circuits against a committed file.

The corpus is 49 circuits.  The first 24 are the circuits whose
detections ``solve_st`` with SolveParams(seed=3) runs on the bench
catalogue's ``st-no`` instances, left uncondensed; each is rebuilt from the
instance's closure, a candidate code and the instance's facilities, and
keyed by (catalogue instance, candidate code, detection seed).  Then come 20
circuits on seeded random hosts with random terminal sets, four larger ones
(orders 6 to 11, dozens of products per mul level; the order-11 tree at
k = 11 spans two ``SUBSET_CHUNK`` chunks of lanes, and at small t many
products vanish past z^t), and one circuit whose every branch is pruned
(its values are 0).  Each circuit is evaluated at every z-degree
t from 0 to its terminal count, for k equal to the tree order and one below
it, so most values are nonzero field elements.  The values depend on the
circuit's x-gate order and on numpy's ``default_rng`` stream.  A change to
the circuit's representation must leave this file alone; a change meant to
alter the fingerprints regenerates it with

    PYTHONPATH=src python3 tests/test_pinned_fingerprints.py --write
"""

import json
import random
import sys
from pathlib import Path

from snowteam.digraph import make_instance, transitive_closure
from snowteam.tpe import build_circuit, eval_trial
from snowteam.trees import candidate_from_code, candidate_stream

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned_fingerprints.json"
CATALOGUE = HERE.parent / "bench" / "catalogue.json"


# (st-no catalogue index, candidate code, seed) of every detection that
# solve_st runs on the uncondensed st-no instances.  The seeds are fixed
# data, not the ones the solvers pass.  A fixed table, so a change to
# candidate enumeration, the filter or the solvers' seeds leaves these
# circuits alone.
ST_NO_DETECTIONS = [
    (0, "0 1 1 / uu", 104729003),
    (0, "0 1 2 1 / uuu", 104833732),
    (0, "0 1 2 1 2 / duuu", 104938461),
    (1, "0 1 1 / uu", 104729003),
    (1, "0 1 2 1 / uuu", 104833732),
    (1, "0 1 2 1 2 / uuuu", 104938461),
    (2, "0 1 2 1 / uuu", 104729003),
    (2, "0 1 2 1 / ddu", 104833732),
    (2, "0 1 2 1 2 / duuu", 104938461),
    (2, "0 1 2 1 2 / dduu", 105043190),
    (2, "0 1 2 3 1 2 / dduuu", 105147919),
    (2, "0 1 2 3 1 2 / ddduu", 105252648),
    (3, "0 1 2 1 / ddu", 104729003),
    (3, "0 1 2 1 2 / dduu", 104833732),
    (3, "0 1 2 3 1 2 / ddduu", 104938461),
    (4, "0 1 1 / uu", 104729003),
    (4, "0 1 1 / du", 104833732),
    (4, "0 1 2 1 / uuu", 104938461),
    (4, "0 1 2 1 2 / uuuu", 105043190),
    (6, "0 1 1 / uu", 104729003),
    (6, "0 1 1 / du", 104833732),
    (6, "0 1 1 1 / duu", 104938461),
    (6, "0 1 2 1 / uuu", 105043190),
    (6, "0 1 2 1 2 / uuuu", 105147919),
]


def _st_no_circuits():
    """(name, circuit, seed, terminal count) for every ``ST_NO_DETECTIONS`` row."""
    specs = json.loads(CATALOGUE.read_text())["st-no"]
    for i, code, seed in ST_NO_DETECTIONS:
        spec = specs[i]
        inst = make_instance(
            spec["n"],
            [tuple(a) for a in spec["arcs"]],
            set(spec["facilities"]),
            {v: c for v, c in enumerate(spec["ploughs"]) if c},
        )
        fac = inst.facilities()
        circuit = build_circuit(transitive_closure(inst), candidate_from_code(code), fac)
        yield f"st-no[{i}] {code} seed {seed}", circuit, seed, len(fac)


def _random_circuits():
    rng = random.Random(20261019)
    for i in range(20):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, rng.randint(n - 1, min(3 * n, len(pairs))))
        ploughs = {v: rng.randint(1, 2) for v in rng.sample(range(n), rng.randint(2, n))}
        host = make_instance(n, arcs, set(), ploughs)
        cand = rng.choice([c for c in candidate_stream(1, min(5, n)) if c.order >= 2])
        terminals = rng.sample(range(n), rng.randint(1, cand.order))
        yield f"random{i}", build_circuit(host, cand, terminals), i, len(terminals)


def _large_circuits():
    """Random trees of orders 6 to 11 (a random depth sequence and random
    directions) on hosts with 3n arcs, 1 to 3 ploughs everywhere and three
    terminals."""
    rng = random.Random(20261020)
    for i, (n, order) in enumerate([(8, 6), (9, 7), (10, 8), (12, 11)]):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        ploughs = {v: rng.randint(1, 3) for v in range(n)}
        host = make_instance(n, rng.sample(pairs, 3 * n), set(), ploughs)
        levels = [0]
        for _ in range(order - 1):
            levels.append(rng.randint(1, levels[-1] + 1))
        dirs = "".join(rng.choice("du") for _ in range(order - 1))
        cand = candidate_from_code(" ".join(map(str, levels)) + " / " + dirs)
        terminals = rng.sample(range(n), 3)
        yield f"large{i}", build_circuit(host, cand, terminals), i, len(terminals)


def _pruned_circuit():
    """An out-star needing two ploughs on a host with one: every pair is pruned."""
    cand = next(c for c in candidate_stream(1, 3) if c.arcs == ((0, 1), (0, 2)))
    host = make_instance(3, [(0, 1), (0, 2)], {0}, {0: 1})
    return build_circuit(host, cand, {0})


def _fingerprints() -> dict:
    corpus = [
        *_st_no_circuits(),
        *_random_circuits(),
        *_large_circuits(),
        ("all-pruned", _pruned_circuit(), 5, 1),
    ]
    return {
        name: [
            eval_trial(circuit, t, k, seed)
            for k in (circuit.tree_order - 1, circuit.tree_order)
            for t in range(t_max + 1)
        ]
        for name, circuit, seed, t_max in corpus
    }


def test_tpe_fingerprints_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    got = _fingerprints()
    assert sorted(got) == sorted(pinned)
    assert not any(pinned["all-pruned"])
    diff = {key: (pinned[key], got[key]) for key in pinned if pinned[key] != got[key]}
    assert not diff, f"fingerprints differ from {PINNED.name} (pinned, got): {diff}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = sorted(_fingerprints().items())
    PINNED.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n"
    )
