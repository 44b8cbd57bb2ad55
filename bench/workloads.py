"""The four workloads: operations drawn from a seed, built, solved and checked.

An operation is plain data (a JSON-ready dict) until ``build`` hands it to
the program through ``make_instance``, ``gen_fig3`` or ``build_gadget``.
The instance classes come from catalogue.json (see scan.py); the seed only
renumbers vertices, orders the sets of a set system and orders the solves,
so every seed asks for the same amount of work.  Renumbering keeps the
facilities and plough bases in order, and set order is the only freedom a
gadget gets: relabelling the items moves the exact engine's search order
and its time by up to five times.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"

WORKLOADS = ("st-no", "st-prune", "variants", "gadget-exact")

#: largest failure probability a NO decision may report
MAX_FAILURE_BOUND = 1e-3


class CheckoutError(RuntimeError):
    """The program cannot be imported from this checkout's src directory."""


def load_snowteam():
    """Import snowteam from ``<checkout>/src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        st = importlib.import_module("snowteam")
    except ImportError as e:
        raise CheckoutError(f"cannot import snowteam from {SRC}: {e}") from None
    if SRC not in Path(st.__file__).resolve().parents:
        raise CheckoutError(f"snowteam was imported from {st.__file__}, not from {SRC}")
    return st


def purge_snowteam() -> None:
    """Forget every snowteam module so the next import executes them afresh."""
    for name in [m for m in sys.modules if m == "snowteam" or m.startswith("snowteam.")]:
        del sys.modules[name]


# ---------------------------------------------------------------------------
# drawing operations from a seed

def _order_keeping_perm(n: int, special, rng: random.Random) -> list[int]:
    """A random numbering that keeps the special vertices in their relative order.

    The solvers try facility subsets and base promotions in numeric order and
    stop at the first success, so reordering facilities or bases changes how
    much work a solve does; any other renumbering leaves it alone.
    """
    special = sorted(special)
    slots = sorted(rng.sample(range(n), len(special)))
    rest = [v for v in range(n) if v not in set(slots)]
    rng.shuffle(rest)
    perm = [0] * n
    for v, slot in zip(special, slots):
        perm[v] = slot
    for v, slot in zip((v for v in range(n) if v not in set(special)), rest):
        perm[v] = slot
    return perm


def _relabel(spec: dict, rng: random.Random) -> dict:
    bases = [v for v, c in enumerate(spec["ploughs"]) if c]
    perm = _order_keeping_perm(spec["n"], set(spec["facilities"]) | set(bases), rng)
    ploughs = [0] * spec["n"]
    for v, c in enumerate(spec["ploughs"]):
        ploughs[perm[v]] = c
    return {
        "n": spec["n"],
        "arcs": sorted([perm[u], perm[v]] for u, v in spec["arcs"]),
        "facilities": sorted(perm[f] for f in spec["facilities"]),
        "ploughs": ploughs,
    }


def min_cover_size(n_items: int, sets) -> int:
    """Smallest number of sets covering 1..n_items, by plain enumeration."""
    universe = set(range(1, n_items + 1))
    for size in range(1, len(sets) + 1):
        if any(set().union(*combo) == universe for combo in itertools.combinations(sets, size)):
            return size
    raise ValueError("the sets do not cover the universe")


def make_ops(workload: str, seed: int, catalogue: dict, sample_cover) -> list[dict]:
    """One round of operations for the workload, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("st-no", "st-prune"):
        ops = [{"kind": "st", "spec": _relabel(s, rng)} for s in catalogue[workload]]
    elif workload == "variants":
        def fig3(n):
            # gen_fig3(n): facilities 0 and n-1, ploughs on the odd vertices
            special = {0, n - 1} | set(range(1, n, 2))
            return {"fig3": n, "perm": _order_keeping_perm(n, special, rng)}

        ops = [{"kind": "min-st", "spec": fig3(n)} for n in (5, 7)]
        ops += [{"kind": "stu", "spec": fig3(5), "k": k} for k in (4, 3)]
        ops += [{"kind": "max-st", "spec": _relabel(s, rng)} for s in catalogue["max-st"]]
    elif workload == "gadget-exact":
        # the sample cover also at one set of slack, for an odd count per round
        systems = [({"n_items": sample_cover.n_items, "sets": sample_cover.sets}, (1, 0, -1))]
        systems += [(system, (0, -1)) for system in catalogue["set-systems"]]
        ops = []
        for system, offsets in systems:
            sets = [list(s) for s in system["sets"]]
            rng.shuffle(sets)
            opt = min_cover_size(system["n_items"], sets)
            for d in offsets:
                spec = {"n_items": system["n_items"], "sets": sets, "k": opt + d}
                ops.append({"kind": "gadget", "spec": spec})
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["label"] = f"{workload}[{i}]:{op['kind']}"
    return ops


def load_catalogue() -> dict:
    with open(CATALOGUE) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# building, solving, checking

def build(op: dict, st):
    """The program's own object for the operation: an Instance or a GadgetLayout."""
    spec = op["spec"]
    if op["kind"] == "gadget":
        sets = tuple(tuple(s) for s in spec["sets"])
        return st.build_gadget(st.SetCoverInstance(spec["n_items"], sets, spec["k"]))
    if "fig3" in spec:
        base, perm = st.gen_fig3(spec["fig3"]), spec["perm"]
        return st.make_instance(
            base.n,
            [(perm[u], perm[v]) for u, v in base.arcs],
            {perm[f] for f in base.facilities()},
            {perm[v]: c for v, c in enumerate(base.ploughs) if c},
        )
    return st.make_instance(spec["n"], spec["arcs"], spec["facilities"], spec["ploughs"])


def solve(op: dict, built, st):
    """Run the measured path: one solver call with one job and default parameters."""
    kind = op["kind"]
    if kind == "gadget":
        params = st.SolveParams(jobs=1, exact_threshold=built.instance.n)
        return st.solve_st(built.instance, params)
    params = st.SolveParams(jobs=1)
    if kind == "st":
        return st.solve_st(built, params)
    if kind == "min-st":
        return st.solve_min_st(built, params)
    if kind == "max-st":
        return st.solve_max_st(built, params)
    if kind == "stu":
        return st.solve_stu(built, op["k"], params)
    raise ValueError(f"unknown operation kind {kind!r}")


def expected_answer(op: dict, st):
    """The answer computed apart from the measured path.

    st: the BFS oracle.  max-st: the exact variant search.  The zigzag
    family needs exactly n-1 ploughs, which fixes both min-st and stu.
    Gadgets: a cover of at most k sets exists, by plain enumeration.
    """
    kind, spec = op["kind"], op["spec"]
    if kind == "st":
        return st.solve_st_exact(build(op, st))[0]
    if kind == "max-st":
        return st.solve_variant_exact(build(op, st), "max-st")
    if kind == "min-st":
        return spec["fig3"] - 1
    if kind == "stu":
        return op["k"] >= spec["fig3"] - 1
    if kind == "gadget":
        sets = [tuple(s) for s in spec["sets"]]
        return min_cover_size(spec["n_items"], sets) <= spec["k"]
    raise ValueError(f"unknown operation kind {kind!r}")


def check(op: dict, built, report, expected, st) -> str | None:
    """None when the report is right, else the reason it is wrong."""
    kind = op["kind"]
    if kind in ("min-st", "max-st"):
        if report.optimum != expected:
            return f"optimum {report.optimum}, expected {expected}"
        # a union bound over the detections that could have missed
        limit = MAX_FAILURE_BOUND * max(1, report.detections_run)
    else:
        if report.answer != expected:
            return f"answer {report.answer}, expected {expected}"
        limit = MAX_FAILURE_BOUND
    if report.failure_bound > limit:
        return f"failure bound {report.failure_bound:.2e} above {limit:.0e}"
    if kind == "gadget" and report.answer:
        ok, reason = st.verify_st_solution(built.instance, report.witness)
        if not ok:
            return f"witness fails verification: {reason}"
        cover = st.walks_to_cover(built, report.witness)
        universe = set(range(1, built.sc.n_items + 1))
        if len(cover) > built.sc.k or set().union(*(built.sc.sets[j - 1] for j in cover)) != universe:
            return f"extracted cover {cover} is not a cover of at most {built.sc.k} sets"
    return None


def attempt(op: dict, built, expected, st) -> tuple[float, float, str | None, bool]:
    """Solve and check one operation.

    Returns (solve seconds, solve-and-check seconds, failure reason, wrong).
    A solver exception is a failure; a wrong answer is a failure that also
    makes the run incorrect.
    """
    t0 = perf_counter()
    try:
        report = solve(op, built, st)
    except Exception as e:  # a crashing solve counts as failed; the run goes on
        t1 = perf_counter()
        return t1 - t0, t1 - t0, f"solver raised {e!r}", False
    t1 = perf_counter()
    try:
        reason = check(op, built, report, expected, st)
    except Exception as e:  # output the checks cannot even read is wrong output
        reason = f"check raised {e!r}"
    return t1 - t0, perf_counter() - t0, reason, reason is not None
