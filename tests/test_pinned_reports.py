"""Pinned solver reports: every pipeline variant against a committed file.

Each report is reduced to (answer, optimum, failure_bound, candidates_tested,
detections_run, witness is None) for st, min-st, max-st and stu at k 0 and
k 1 on the bench catalogue instances, a seeded gen_random set (ploughs on
facilities), a seeded set with ploughs on any vertex (several base
promotions), and five instances where a min-st
promotion passes the base-reachability precheck after the last promotion
that runs a detection.  Their min-st bound is set by the cap of the whole
call, min(2L-1, L+kB-1, n) for L = |F u B| and kB ploughs, which bounds
the order of every promotion's candidates.  The
first of those has a cycle; on its condensation its min-st needs no such
detection and carries bound 0.  In the second and third the onto-F pin
decides every NO promotion, so their min-st bound is 0 too; the last two
have a NO candidate that a detection would leave with a bound, and that
the survivor search (``tpe.embed``) decides with certainty.  The search
decides every survivor in this file within its budget, so no report runs
a detection and every bound is 0.  The reports do not depend on the seed, so
SolveParams(seed=3) and SolveParams(seed=11) are both checked against the
one file.  A change meant to keep answers, optima, bounds and counts must
leave this file alone; a change meant to alter them regenerates it, with
seed 3, by

    PYTHONPATH=src python3 tests/test_pinned_reports.py --write
"""

import json
import random
import sys
from pathlib import Path

import pytest

from snowteam.cli import gen_random
from snowteam.digraph import make_instance
from snowteam.solvers import SolveParams, solve_max_st, solve_min_st, solve_st, solve_stu

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned_reports.json"
CATALOGUE = HERE.parent / "bench" / "catalogue.json"
SOLVES = {
    "st": solve_st,
    "min-st": solve_min_st,
    "max-st": solve_max_st,
    "stu-k0": lambda inst, params: solve_stu(inst, 0, params),
    "stu-k1": lambda inst, params: solve_stu(inst, 1, params),
}


# (n, arcs, facilities, ploughs) for the min-st bound cases in the docstring
BOUND_CASES = (
    (6, [(0, 5), (1, 3), (2, 0), (2, 4), (4, 5), (5, 2), (5, 3)], {1, 5, 2}, {1: 2, 4: 1, 5: 1}),
    (6, [(0, 4), (1, 0), (1, 2), (3, 0), (3, 1), (5, 0)], {5, 2}, {4: 1, 5: 1, 3: 2}),
    (6, [(0, 2), (1, 5), (4, 0), (4, 5), (5, 3)], {4, 1, 2}, {4: 1, 3: 1, 2: 1, 1: 1}),
    (6, [(0, 5), (2, 1), (4, 0), (4, 2), (4, 3)], {0, 2}, {1: 2, 4: 1, 0: 1}),
    (7, [(1, 2), (1, 5), (1, 6), (2, 0), (3, 0), (3, 2), (3, 5), (3, 6), (5, 4)], {2, 5},
     {0: 1, 5: 1, 3: 1, 6: 1}),
)


def _instances():
    """(name, instance): the 21 catalogue instances, 24 gen_random ones, 30
    with ploughs anywhere, then the five bound cases."""
    catalogue = json.loads(CATALOGUE.read_text())
    for family in ("st-no", "st-prune", "max-st"):
        for i, spec in enumerate(catalogue[family]):
            inst = make_instance(
                spec["n"],
                [tuple(a) for a in spec["arcs"]],
                set(spec["facilities"]),
                {v: c for v, c in enumerate(spec["ploughs"]) if c},
            )
            yield f"{family}[{i}]", inst
    rng = random.Random(20261018)
    for i in range(24):
        n = rng.randint(3, 7)
        arcs = rng.randint(n - 1, min(n * (n - 1), 2 * n))
        inst = gen_random(n, arcs, 0.5, rng.randrange(10**6), rng.randint(1, 2))
        yield f"rand{i}", inst
    rng = random.Random(20261019)
    for i in range(30):
        n = rng.randint(4, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, rng.randint(n - 1, 2 * n))
        fac = rng.sample(range(n), rng.randint(2, 3))
        ploughs: dict[int, int] = {}
        for _ in range(rng.randint(1, 4)):
            v = rng.randrange(n)
            ploughs[v] = min(ploughs.get(v, 0) + 1, n - 1)
        yield f"anywhere{i}", make_instance(n, arcs, fac, ploughs)
    for i, case in enumerate(BOUND_CASES):
        yield f"min-st-bound{i}", make_instance(*case)


def _reports(seed: int) -> dict:
    params = SolveParams(seed=seed)
    out = {}
    for name, inst in _instances():
        for variant, solve in SOLVES.items():
            rep = solve(inst, params)
            out[f"{name} {variant}"] = [
                rep.answer,
                rep.optimum,
                rep.failure_bound,
                rep.candidates_tested,
                rep.detections_run,
                rep.witness is None,
            ]
    return out


@pytest.mark.parametrize("seed", [3, 11])
def test_reports_match_the_pinned_file(seed):
    pinned = json.loads(PINNED.read_text())
    got = _reports(seed)
    assert sorted(got) == sorted(pinned)
    diff = {key: (pinned[key], got[key]) for key in pinned if pinned[key] != got[key]}
    assert not diff, f"reports differ from {PINNED.name} (pinned, got): {diff}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = sorted(_reports(3).items())
    PINNED.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n"
    )
