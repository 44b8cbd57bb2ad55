"""Command-line front end.

Exit codes: 0 = YES / optimum found / success, 1 = NO / infeasible,
2 = usage or input error.  JSON output has a fixed field order and no
timing fields, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .digraph import (
    Instance,
    ParseError,
    _content_lines,
    parse_instance,
    parse_walks,
    serialize_instance,
    verify_st_solution,
)
from .exact import LimitsExceeded, solve_tpe_exact
from .gadgets import build_gadget, gen_fig3, parse_set_cover, serialize_gadget, walks_to_cover
from .solvers import (
    SolveParams,
    SolveReport,
    _miss,
    solve_max_st,
    solve_min_st,
    solve_st,
    solve_stu,
)
from .tpe import decide_tpe
from .trees import candidate_from_code, candidate_stream, enumerate_free_trees, orient_tree

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def gen_random(n: int, arcs: int, facility_prob: float, seed: int, ploughs: int = 1) -> Instance:
    """Uniform simple digraph with sampled facilities and plough placement."""
    if n < 1:
        raise ValueError("need at least one vertex")
    max_arcs = n * (n - 1)
    if not (0 <= arcs <= max_arcs):
        raise ValueError(f"arc count must be in [0, {max_arcs}]")
    if not (0.0 <= facility_prob <= 1.0):
        raise ValueError("facility probability must be in [0, 1]")
    if ploughs < 0:
        raise ValueError("plough count must be nonnegative")
    rng = np.random.default_rng(seed)
    # index i names the i-th ordered pair (u, v), u != v, in row-major order
    chosen = rng.choice(max_arcs, size=arcs, replace=False)
    u, r = np.divmod(chosen, n - 1)
    arc_set = frozenset(zip(u.tolist(), (r + (r >= u)).tolist()))
    facility = tuple(bool(rng.random() < facility_prob) for _ in range(n))
    population = [v for v in range(n) if facility[v]] or list(range(n))
    capacity = (n - 1) * len(population)  # at most n-1 ploughs per vertex
    if ploughs > capacity:
        raise ValueError(f"{ploughs} ploughs exceed the capacity {capacity} of the plough vertices")
    counts = [0] * n
    for _ in range(ploughs):
        v = int(population[int(rng.integers(0, len(population)))])
        while counts[v] >= n - 1:
            v = population[(population.index(v) + 1) % len(population)]
        counts[v] += 1
    return Instance(n=n, arcs=arc_set, facility=facility, ploughs=tuple(counts))


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _report_output(args, problem: str, report: SolveReport, decision: str) -> int:
    witness = (
        [list(w.vertices) for w in report.witness.walks] if report.witness is not None else None
    )
    payload = {
        "problem": problem,
        "answer": decision,
        "optimum": report.optimum,
        "failure_bound": report.failure_bound,
        "candidates_tested": report.candidates_tested,
        "detections_run": report.detections_run,
        "witness": witness,
    }
    lines = [f"answer: {decision}"]
    if report.optimum is not None:
        lines.append(f"optimum: {report.optimum}")
    lines.append(f"failure-bound: {report.failure_bound:.3e}")
    lines.append(f"candidates: {report.candidates_tested}  detections: {report.detections_run}")
    if witness is not None:
        lines.append("witness:")
        lines.extend("  " + " ".join(map(str, w)) for w in witness)
    _emit(args, payload, lines)
    return EXIT_YES if decision in ("yes", "optimum") else EXIT_NO


def _split_tree_line(text: str):
    """Split off a tpe file's one 'tree <code>' line, blanked to keep line numbers."""
    inst_lines, tree_code = text.splitlines(), None
    for ln, line in _content_lines(text):
        if line.startswith("tree "):
            if tree_code is not None:
                raise ParseError(ln, "a tpe file has exactly one 'tree' line")
            tree_code = line[len("tree ") :].strip()
            inst_lines[ln - 1] = ""
    return "\n".join(inst_lines), tree_code


def _cmd_solve(args) -> int:
    text = Path(args.input).read_text()
    params = SolveParams(
        seed=args.seed,
        exact_threshold=10**9 if args.exact else 0,
        jobs=args.jobs,
    )
    if args.problem == "tpe":
        inst_text, tree_code = _split_tree_line(text)
        if tree_code is None:
            raise ValueError("tpe input needs a 'tree <levels> [/ <dirs>]' line")
        host = parse_instance(inst_text)
        cand = candidate_from_code(tree_code)
        terminals = host.facilities() | host.bases()
        if args.exact:
            rep = SolveReport(answer=solve_tpe_exact(host, cand, terminals) is not None)
        else:
            answer, ran = decide_tpe(host, cand, terminals, seed=args.seed)
            miss = _miss(cand.order) if ran and not answer else 0.0
            rep = SolveReport(answer=answer, detections_run=ran, failure_bound=miss)
        return _report_output(args, "tpe", rep, "yes" if rep.answer else "no")
    inst = parse_instance(text)
    if args.problem == "st":
        rep = solve_st(inst, params)
        return _report_output(args, "st", rep, "yes" if rep.answer else "no")
    if args.problem == "min-st":
        rep = solve_min_st(inst, params)
        return _report_output(args, "min-st", rep, "optimum" if rep.answer else "infeasible")
    if args.problem == "max-st":
        rep = solve_max_st(inst, params)
        return _report_output(args, "max-st", rep, "optimum")
    if args.problem == "stu":
        if args.k is None:
            raise ValueError("stu needs --k")
        rep = solve_stu(inst, args.k, params)
        return _report_output(args, "stu", rep, "yes" if rep.answer else "no")
    raise ValueError(f"unknown problem {args.problem!r}")


def _cmd_verify(args) -> int:
    inst = parse_instance(Path(args.input).read_text())
    sol = parse_walks(Path(args.walks).read_text())
    ok, reason = verify_st_solution(inst, sol)
    _emit(args, {"ok": ok, "reason": reason}, [reason if not ok else "ok"])
    return EXIT_YES if ok else EXIT_NO


def _cmd_gadget(args) -> int:
    sc = parse_set_cover(Path(args.input).read_text())
    text = serialize_gadget(build_gadget(sc))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_extract_cover(args) -> int:
    sc = parse_set_cover(Path(args.input).read_text())
    sol = parse_walks(Path(args.walks).read_text())
    cover = walks_to_cover(build_gadget(sc), sol)
    _emit(args, {"cover": list(cover)}, [" ".join(map(str, cover))])
    return EXIT_YES


def _cmd_gen(args) -> int:
    if args.family == "fig3":
        if args.n is None:
            raise ValueError("gen --family fig3 needs --n")
        inst = gen_fig3(args.n)
    elif args.family == "random":
        if args.n is None or args.arcs is None:
            raise ValueError("gen --family random needs --n and --arcs")
        inst = gen_random(args.n, args.arcs, args.facilities, args.seed, args.ploughs)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    text = serialize_instance(inst)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_trees(args) -> int:
    if args.dedupe and not args.oriented:
        raise ValueError("--dedupe applies to orientations; add --oriented")
    if args.oriented:
        for tree in enumerate_free_trees(args.order):
            for cand in orient_tree(tree, dedupe=args.dedupe):
                print(cand.code_str())
    else:
        for tree in enumerate_free_trees(args.order):
            print(tree.code_str())
    return EXIT_YES


def _cmd_selftest(args) -> int:
    from .selfcheck import run_all

    return run_all(only=args.only)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snowteam", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--problem", required=True, choices=["st", "min-st", "max-st", "stu", "tpe"])
    solve.add_argument("--input", required=True)
    solve.add_argument("--k", type=int, default=None, help="plough count for stu")
    solve.add_argument("--seed", type=int, default=1)
    solve.add_argument("--exact", action="store_true", help="route to the exact engine")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--jobs", type=int, default=1)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a walks file against an instance")
    verify.add_argument("--input", required=True)
    verify.add_argument("--walks", required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    gadget = sub.add_parser("gadget", help="build the clearing gadget of a set-cover file")
    gadget.add_argument("--input", required=True)
    gadget.add_argument("--output", default=None)
    gadget.set_defaults(func=_cmd_gadget)

    extract = sub.add_parser(
        "extract-cover",
        help="read a set cover off verifying gadget walks: the sets whose rows "
        "leave the hub z on a cleared arc (input is the set-cover file; the "
        "gadget is rebuilt deterministically)",
    )
    extract.add_argument("--input", required=True)
    extract.add_argument("--walks", required=True)
    extract.add_argument("--json", action="store_true")
    extract.set_defaults(func=_cmd_extract_cover)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--family", required=True, choices=["fig3", "random"])
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--arcs", type=int, default=None)
    gen.add_argument("--facilities", type=float, default=0.5, help="facility probability")
    gen.add_argument("--ploughs", type=int, default=1)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    trees_cmd = sub.add_parser("trees", help="print candidate tree codes")
    trees_cmd.add_argument("--order", type=int, required=True)
    trees_cmd.add_argument("--oriented", action="store_true")
    trees_cmd.add_argument("--dedupe", action="store_true")
    trees_cmd.set_defaults(func=_cmd_trees)

    selftest = sub.add_parser("selftest", help="run the acceptance checks")
    selftest.add_argument("--only", default=None, help="run a single named check")
    selftest.set_defaults(func=_cmd_selftest)

    return p


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse's usage errors and --help
        return e.code if isinstance(e.code, int) else EXIT_ERROR
    except (ParseError, ValueError, LimitsExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
