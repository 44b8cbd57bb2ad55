"""Regenerate bench/catalogue.json: the instance classes the workloads run.

The catalogue is drawn once from fixed scan seeds and kept as data, so that
every run measures the same work whatever its --seed; run.py only relabels
the vertices and orders the solves from its seed.  Each workload runs an
odd number of operations per round, so the median solve falls inside one
instance class rather than between two.  Selection rules:

* st-no: restricted instances (every plough base is a facility), n in 5..8,
  at most 14 arcs, 3-4 facilities, 1-4 ploughs.  Kept when the BFS oracle
  says NO, the facilities share a weak component, and 3 to 6 candidates
  pass the filter, the largest at order 5 or 6.  First 7 kept.
* st-prune: restricted instances with n = 8, 5 facilities, 2-3 ploughs,
  7-14 arcs.  Kept when the oracle says NO, the facilities share a weak
  component, and the filter rejects every candidate.  First 11 kept.
* max-st: instances with n in 5..7, at most 12 arcs, 3-4 facilities and
  1-3 ploughs anywhere.  Kept when the exact optimum lies in 2..|F|-1, so
  the subset loop runs past the full set, and the pipeline ran 2 to 6
  detections over at most 100 candidates.  First 3 kept.
* set systems: 6 items, 5 distinct sets of 1-4 items covering the
  universe, at most 11 memberships in all (the sample cover has 11), since
  the exact engine's time grows steeply with the gadget's order.  Kept when
  the smallest cover has 2 or 3 sets.  First 2 kept.

Usage: PYTHONPATH=src python3 bench/scan.py > bench/catalogue.json
"""

from __future__ import annotations

import itertools
import json
import random
import sys

from snowteam import SolveParams, make_instance, solve_max_st, transitive_closure
from snowteam.exact import solve_st_exact, solve_variant_exact
from snowteam.solvers import _candidate_feasible, _facilities_in_one_weak_component
from snowteam.trees import candidate_stream

SCAN_SEED = 20171201


def _spec(inst):
    return {
        "n": inst.n,
        "arcs": sorted(list(a) for a in inst.arcs),
        "facilities": sorted(inst.facilities()),
        "ploughs": list(inst.ploughs),
    }


def _restricted(rng, n, arc_range, n_fac, kb):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = rng.sample(pairs, rng.randint(*arc_range))
    fac = rng.sample(range(n), n_fac)
    ploughs: dict[int, int] = {}
    for _ in range(kb):
        f = rng.choice(fac)
        ploughs[f] = ploughs.get(f, 0) + 1
    return make_instance(n, arcs, fac, ploughs)


def _passing_orders(inst):
    fac = inst.facilities()
    closure = transitive_closure(inst)
    eta_max = min(2 * len(fac) - 1, inst.n)
    return [
        c.order
        for c in candidate_stream(len(fac), eta_max, budget=inst.total_ploughs())
        if _candidate_feasible(closure, c, fac)
    ]


def scan_st_no(rng, count=7):
    found = []
    while len(found) < count:
        n = rng.randint(5, 8)
        inst = _restricted(rng, n, (n - 1, 14), rng.randint(3, min(4, n)), rng.randint(1, 4))
        if not _facilities_in_one_weak_component(inst):
            continue
        orders = _passing_orders(inst)
        if not (3 <= len(orders) <= 6 and max(orders) in (5, 6)):
            continue
        if not solve_st_exact(inst)[0]:
            found.append(_spec(inst))
    return found


def scan_st_prune(rng, count=11):
    found = []
    while len(found) < count:
        inst = _restricted(rng, 8, (7, 14), 5, rng.randint(2, 3))
        if not _facilities_in_one_weak_component(inst) or _passing_orders(inst):
            continue
        if not solve_st_exact(inst)[0]:
            found.append(_spec(inst))
    return found


def scan_max_st(rng, count=3):
    found = []
    while len(found) < count:
        n = rng.randint(5, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, rng.randint(n - 1, 12))
        fac = rng.sample(range(n), rng.randint(3, 4))
        ploughs: dict[int, int] = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            ploughs[v] = ploughs.get(v, 0) + 1
        inst = make_instance(n, arcs, fac, ploughs)
        best = solve_variant_exact(inst, "max-st")
        if not 2 <= best < len(fac):
            continue
        report = solve_max_st(inst, SolveParams(jobs=1))
        if 2 <= report.detections_run <= 6 and report.candidates_tested <= 100:
            found.append(_spec(inst))
    return found


def scan_set_systems(rng, count=2, n_items=6, m=5):
    found = []
    while len(found) < count:
        sets = [tuple(sorted(rng.sample(range(1, n_items + 1), rng.randint(1, 4)))) for _ in range(m)]
        if len(set(sets)) < m or set().union(*sets) != set(range(1, n_items + 1)):
            continue
        if sum(map(len, sets)) > 11:
            continue
        opt = next(
            k
            for k in range(1, m + 1)
            if any(
                set().union(*c) == set(range(1, n_items + 1))
                for c in itertools.combinations(sets, k)
            )
        )
        if opt in (2, 3):
            found.append({"n_items": n_items, "sets": [list(s) for s in sets]})
    return found


def main() -> int:
    rng = random.Random(SCAN_SEED)
    catalogue = {
        "scan_seed": SCAN_SEED,
        "st-no": scan_st_no(rng),
        "st-prune": scan_st_prune(rng),
        "max-st": scan_max_st(rng),
        "set-systems": scan_set_systems(rng),
    }
    print("{")
    for i, (key, value) in enumerate(catalogue.items()):
        comma = "," if i < len(catalogue) - 1 else ""
        if isinstance(value, list):
            rows = ",\n".join("  " + json.dumps(v) for v in value)
            print(f' "{key}": [\n{rows}\n ]{comma}')
        else:
            print(f' "{key}": {json.dumps(value)}{comma}')
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
