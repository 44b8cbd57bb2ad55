"""Benchmark for snowteam: four workloads, each solve checked and timed.

Usage:
  python3 bench/run.py --workload st-no|st-prune|variants|gadget-exact|all
                       [--seed N] [--seconds S] [--trace 0|1]

A run builds one round of operations from the seed, gets their expected
answers from oracle.py in a separate process, then solves and checks whole
rounds until --seconds have passed, timing the set-up (importing snowteam
and building the instances) three times at the start of every round.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and reports per-layer metrics from spans recorded around the program's
functions.  The last line of standard output is one JSON object.
``--workload all`` runs the four workloads one after another, each in its
own process.
"""

from __future__ import annotations

import os

# one thread per process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 3  # per round
ALGEBRA_KS = (4, 6, 8)
ALGEBRA_REPS = 7
CHILD_TIMEOUT_S = 170


def _oracle(ops: list[dict]) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py")],
        input=json.dumps(ops),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=workloads.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracle.py failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _setup_rep(ops: list[dict]) -> float:
    """Import snowteam afresh and build every instance once; return the seconds.

    numpy is already loaded and snowteam's bytecode is cached, so this times
    snowteam's module-level work and the instance builders.  The modules in
    use are put back afterwards, and solving goes on with them.
    """
    saved = {n: m for n, m in sys.modules.items() if n == "snowteam" or n.startswith("snowteam.")}
    workloads.purge_snowteam()
    t0 = perf_counter()
    st = workloads.load_snowteam()
    for op in ops:
        workloads.build(op, st)
    elapsed = perf_counter() - t0
    workloads.purge_snowteam()
    sys.modules.update(saved)
    return elapsed


def _timed(ops, built, expected, st, seconds):
    """Whole rounds until `seconds` pass; each solve bracketed by the reference loop.

    Each round starts with SETUP_REPS set-ups, so that set-up is sampled
    over the whole run, as the solves are, and not in one burst at its start.
    """
    records, setup_times = [], []
    t_start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - t_start < seconds:
        setup_times += [_setup_rep(ops) for _ in range(SETUP_REPS)]
        gc.collect()  # the discarded modules form cycles; free them before timing
        ref_before = measure.reference_loop()
        for i, op in enumerate(ops):
            solve_s, checked_s, reason, wrong = workloads.attempt(op, built[i], expected[i], st)
            ref_after = measure.reference_loop()
            records.append({
                "op": op["label"],
                "solve_s": solve_s,
                "checked_s": checked_s,
                "ref_s": (ref_before + ref_after) / 2,
                "ref": measure.normalised(solve_s, ref_before, ref_after),
                "failure": reason,
                "wrong": wrong,
            })
            ref_before = ref_after
        rounds += 1
    return records, rounds, setup_times


def _round(ops, expected, st, tracer=None):
    """Build and solve one round; returns (failures, wrong answers)."""
    failed = wrong = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        obj = workloads.build(op, st)
        _, _, reason, bad = workloads.attempt(op, obj, expected[i], st)
        failed += reason is not None
        wrong += bad
    return failed, wrong


def _algebra_metrics(st) -> tuple[dict, list[str]]:
    """One ga_mul_fast product per k timed on its own, plus computed work.

    Word operations and bytes follow the array shapes of the lifted
    transform product with G = 2^k: bit expansion 2*64G ops per operand,
    forward transforms k*64G each, the 64x64 bit-plane product 2*64*64G,
    the inverse transform 127kG, and parity extraction and packing about
    4*127G + 14G.  Bytes count the main uint64 arrays: two bit-plane
    arrays, two transforms, the product, its inverse and the parity planes.
    """
    algebra = getattr(st, "algebra", None)
    mul = getattr(algebra, "ga_mul_fast", None)
    elem = getattr(algebra, "GroupAlgebraElem", None)
    metrics = {}
    for k in ALGEBRA_KS:
        g = 1 << k
        times = []
        if mul is not None and elem is not None:
            rng = np.random.default_rng(k)
            a = elem(k, rng.integers(0, 1 << 64, size=g, dtype=np.uint64))
            b = elem(k, rng.integers(0, 1 << 64, size=g, dtype=np.uint64))
            for _ in range(ALGEBRA_REPS + 1):  # the first product warms up
                t0 = perf_counter()
                mul(a, b)
                times.append(perf_counter() - t0)
            times = times[1:]
        words = g * (4 * 64 + 2 * k * 64 + 2 * 64 * 64 + 127 * k + 4 * 127 + 14)
        metrics[f"algebra.mul_s.k{k}"] = (measure.median(times) if times else 0.0, "s")
        metrics[f"algebra.mul_words.k{k}"] = (float(words), "calc-words")
        metrics[f"algebra.mul_bytes.k{k}"] = (8.0 * g * (4 * 64 + 3 * 127), "calc-bytes")
    absent = [] if mul is not None and elem is not None else ["snowteam.algebra.ga_mul_fast"]
    return metrics, absent


def _end_to_end(records, setup_s):
    """Gated metrics first; raw wall-clock rates are printed but not gated."""
    passed = [r for r in records if r["failure"] is None]
    checked_ref = sum(r["checked_s"] / r["ref_s"] for r in records)
    gated = {
        "solve_ref_p50": (measure.median(r["ref"] for r in records), "ref"),
        "solves_per_kref": (1000 * len(passed) / checked_ref, "1/kref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "solves_per_s": (len(passed) / sum(r["checked_s"] for r in records), "1/s"),
        "solve_s_p50": (measure.median(r["solve_s"] for r in records), "s"),
    }
    return gated, raw


def _traced(ops, expected, st, seconds):
    """Alternate untraced and traced rounds, so both see the same host speed."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    failed = wrong = rounds = 0
    t_start = perf_counter()
    while rounds == 0 or perf_counter() - t_start < seconds:
        t0 = perf_counter()
        f, w = _round(ops, expected, st)
        untraced_s += perf_counter() - t0
        tracer.install()
        try:
            t0 = perf_counter()
            f2, w2 = _round(ops, expected, st, tracer)
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        failed, wrong, rounds = failed + f + f2, wrong + w + w2, rounds + 1
    metrics = tracer.layer_metrics(rounds, traced_s)
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / rounds, "s")
    algebra, algebra_absent = _algebra_metrics(st)
    metrics.update(algebra)
    return metrics, 2 * rounds, failed, wrong, tracer.absent + algebra_absent, tracer


def run_workload(args) -> int:
    # Cache snowteam's bytecode in a directory of the benchmark's own, whatever
    # the environment says, so that set-up times module-level work rather
    # than compiling the source; the first import below fills the cache.
    OUT.mkdir(exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    try:
        st = workloads.load_snowteam()
        sample_cover = importlib.import_module("snowteam.selfcheck").SAMPLE_COVER
        ops = workloads.make_ops(args.workload, args.seed, workloads.load_catalogue(), sample_cover)
        expected = _oracle(ops)
    except (RuntimeError, subprocess.TimeoutExpired) as e:  # includes CheckoutError
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, rounds, failed, wrong, absent, tracer = _traced(ops, expected, st, args.seconds)
        attempted = rounds * len(ops)
        raw = {}
        detail = {"absent": absent, "trace": tracer.dump()}
        for name in absent:
            print(f"{args.workload}: layer function {name} is absent; its metrics read 0")
    else:
        built = [workloads.build(op, st) for op in ops]
        records, rounds, setup_times = _timed(ops, built, expected, st, args.seconds)
        metrics, raw = _end_to_end(records, measure.median(setup_times))
        attempted = len(records)
        failed = sum(r["failure"] is not None for r in records)
        wrong = sum(r["wrong"] for r in records)
        detail = {"solves": records, "setups_s": setup_times, "raw": raw}
        for r in records:
            if r["failure"] is not None:
                print(f"{args.workload}: {r['op']} failed: {r['failure']}")

    print(f"{args.workload}: {attempted} solves attempted in {rounds} rounds, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name} = {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"{args.workload}/{name} = {value:.6g} {unit} (wall clock, not gated)")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump({"result": result, **detail}, f)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; metrics keyed '<workload>/<metric>'."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=4 * CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, v in part["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
