import json
import time

import numpy as np
import pytest

from snowteam.cli import gen_random, run_cli
from snowteam.digraph import parse_instance
from snowteam.trees import MAX_ORDER

TOY1 = "st 3 2\nv 0 1 1\nv 1 0 0\nv 2 1 0\na 0 1\na 1 2\n"
TOY2 = "st 3 2\nv 0 1 1\nv 1 0 0\nv 2 1 0\na 1 0\na 1 2\n"
SAMPLE_SC = "sc 5 4 2\ns 1 3 4\ns 2 3\ns 2 4 5\ns 3 4 5\n"


@pytest.fixture
def toy1_file(tmp_path):
    p = tmp_path / "toy1.st"
    p.write_text(TOY1)
    return str(p)


@pytest.fixture
def toy2_file(tmp_path):
    p = tmp_path / "toy2.st"
    p.write_text(TOY2)
    return str(p)


def test_solve_st_exit_codes(toy1_file, toy2_file):
    assert run_cli(["solve", "--problem", "st", "--input", toy1_file]) == 0
    assert run_cli(["solve", "--problem", "st", "--input", toy2_file]) == 1


def test_solve_exact_flag_emits_witness(toy1_file, capsys):
    code = run_cli(["solve", "--problem", "st", "--input", toy1_file, "--exact", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == "yes"
    assert payload["witness"] == [[0, 1, 2]]
    assert payload["failure_bound"] == 0.0


def test_solve_min_max_stu(toy1_file, toy2_file, capsys):
    assert run_cli(["solve", "--problem", "min-st", "--input", toy1_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["optimum"] == 1
    assert run_cli(["solve", "--problem", "min-st", "--input", toy2_file]) == 1
    capsys.readouterr()
    assert run_cli(["solve", "--problem", "max-st", "--input", toy2_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["optimum"] == 1
    assert run_cli(["solve", "--problem", "stu", "--input", toy2_file, "--k", "2"]) == 0
    assert run_cli(["solve", "--problem", "stu", "--input", toy2_file, "--k", "0"]) == 1


def test_solve_json_on_base_reachability_no(tmp_path, capsys):
    # facility 2 is neither a base nor reachable from base 0: decided before
    # any candidate, so the NO is certain
    p = tmp_path / "unreachable.st"
    p.write_text("st 3 2\nv 0 1 1\nv 1 0 0\nv 2 1 0\na 0 1\na 2 1\n")
    for problem, code in (("st", 1), ("min-st", 1), ("max-st", 0)):
        assert run_cli(["solve", "--problem", problem, "--input", str(p), "--json"]) == code
        out = capsys.readouterr().out
        assert '"candidates_tested": 0' in out and '"failure_bound": 0.0' in out, problem


def test_solve_stu_requires_k(toy1_file, capsys):
    assert run_cli(["solve", "--problem", "stu", "--input", toy1_file]) == 2
    assert "needs --k" in capsys.readouterr().err


def test_solve_tpe(tmp_path):
    host = "st 3 2\nv 0 1 1\nv 1 0 0\nv 2 0 0\na 0 1\na 1 2\n"
    f = tmp_path / "inst.tpe"
    f.write_text(host + "tree 0 1 / d\n")
    # single terminal at 0: the directed edge embeds along (0, 1)
    assert run_cli(["solve", "--problem", "tpe", "--input", str(f)]) == 0
    assert run_cli(["solve", "--problem", "tpe", "--input", str(f), "--exact"]) == 0
    g = tmp_path / "no.tpe"
    # no plough capacity anywhere: the demanding vertex cannot be placed
    g.write_text(host.replace("v 0 1 1", "v 0 1 0") + "tree 0 1 / d\n")
    assert run_cli(["solve", "--problem", "tpe", "--input", str(g)]) == 1
    assert run_cli(["solve", "--problem", "tpe", "--input", str(g), "--exact"]) == 1


def test_solve_tpe_json_no_carries_the_miss_bound_of_its_detection(tmp_path, capsys):
    # an out-star needs two ploughs at its root and the path has one: NO
    f = tmp_path / "star.tpe"
    f.write_text(TOY1 + "tree 0 1 1 / dd\n")
    solve = ["solve", "--problem", "tpe", "--input", str(f), "--json"]
    for extra, detections, bound in (([], 1, 2 * 3 / 2**64), (["--exact"], 0, 0.0)):
        assert run_cli(solve + extra) == 1
        out = json.loads(capsys.readouterr().out)
        assert (out["answer"], out["detections_run"], out["failure_bound"]) == (
            "no", detections, bound
        ), extra
    # a tree larger than the host is a certain NO: no detection runs
    f.write_text(TOY1 + "tree 0 1 2 3 / ddd\n")
    assert run_cli(solve) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["detections_run"], out["failure_bound"]) == (0, 0.0)


def test_tpe_parse_errors_name_the_file_line(tmp_path, capsys):
    # the tree line comes first; the self-loop is the file's seventh line
    f = tmp_path / "loop.tpe"
    f.write_text("tree 0 1 / d\nst 3 2\nv 0 1 1\nv 1 0 0\nv 2 0 0\na 0 1\na 1 1\n")
    assert run_cli(["solve", "--problem", "tpe", "--input", str(f)]) == 2
    assert capsys.readouterr().err == "error: line 7: self-loop (1,1) is not allowed\n"


def test_tpe_file_has_one_tree_line(tmp_path, capsys):
    host = "st 2 1\nv 0 1 1\nv 1 0 0\na 0 1\n"
    f = tmp_path / "two.tpe"
    f.write_text("tree 0 1 / d\n" + host + "\ntree 0 1 2 / du\n")
    assert run_cli(["solve", "--problem", "tpe", "--input", str(f)]) == 2
    assert capsys.readouterr().err == "error: line 7: a tpe file has exactly one 'tree' line\n"
    # a commented-out tree line is a comment, as in every format
    f.write_text("# tree 0 1 2 / du\ntree 0 1 / d  # the pattern\n" + host)
    assert run_cli(["solve", "--problem", "tpe", "--input", str(f), "--json"]) == 0
    assert '"answer": "yes"' in capsys.readouterr().out


@pytest.mark.parametrize("depth", ["+1", "\uff11"])
def test_tpe_tree_line_depths_are_ascii_decimal(tmp_path, capsys, depth):
    f = tmp_path / "sign.tpe"
    f.write_text(f"st 2 1\nv 0 1 1\nv 1 0 0\na 0 1\ntree 0 {depth} / d\n", encoding="utf-8")
    assert run_cli(["solve", "--problem", "tpe", "--input", str(f)]) == 2
    assert capsys.readouterr().err == f"error: bad depth sequence in '0 {depth} / d'\n"


def test_verify_command(toy1_file, tmp_path, capsys):
    good = tmp_path / "good.walks"
    good.write_text("0 1 2\n")
    bad = tmp_path / "bad.walks"
    bad.write_text("0 1\n")
    assert run_cli(["verify", "--input", toy1_file, "--walks", str(good)]) == 0
    assert run_cli(["verify", "--input", toy1_file, "--walks", str(bad)]) == 1
    capsys.readouterr()
    for walk in ("0 5", "0 -1"):
        bad.write_text(walk + "\n")
        assert run_cli(["verify", "--input", toy1_file, "--walks", str(bad)]) == 1
        assert capsys.readouterr().out == "walk 0 uses an unknown vertex\n", walk


def test_gadget_solve_pipeline(tmp_path):
    sc = tmp_path / "sample.sc"
    sc.write_text(SAMPLE_SC)
    out = tmp_path / "gadget.st"
    assert run_cli(["gadget", "--input", str(sc), "--output", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert inst.n == 52
    assert run_cli(["solve", "--problem", "st", "--input", str(out), "--exact"]) == 0


def test_extract_cover_round_trip(tmp_path, capsys):
    from snowteam.gadgets import build_gadget, cover_to_walks, parse_set_cover
    from snowteam.digraph import serialize_walks

    sc_file = tmp_path / "sample.sc"
    sc_file.write_text(SAMPLE_SC)
    g = build_gadget(parse_set_cover(SAMPLE_SC))
    walks_file = tmp_path / "sol.walks"
    walks_file.write_text(serialize_walks(cover_to_walks(g, {1, 3})))
    code = run_cli(
        ["extract-cover", "--input", str(sc_file), "--walks", str(walks_file), "--json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cover"] == [1, 3]


def test_gen_fig3_and_random_determinism(tmp_path, capsys):
    assert run_cli(["gen", "--family", "fig3", "--n", "5"]) == 0
    fig = capsys.readouterr().out
    inst = parse_instance(fig)
    assert inst.n == 5 and len(inst.arcs) == 4

    args = ["gen", "--family", "random", "--n", "6", "--arcs", "9", "--seed", "4"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first


def test_gen_random_validity():
    for seed in range(1000):
        inst = gen_random(5, 8, 0.5, seed, ploughs=2)
        assert len(inst.arcs) == 8
        assert all(u != v for u, v in inst.arcs)
        assert inst.total_ploughs() == 2
    full = gen_random(4, 12, 1.0, 0)
    assert len(full.arcs) == 12
    with pytest.raises(ValueError, match="capacity"):
        gen_random(2, 1, 0.5, 0, ploughs=3)


def _gen_random_arcs_from_list(n, arcs, seed):
    """The arcs gen_random draws, decoded through the explicit pair list."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.choice(len(pairs), size=arcs, replace=False) if arcs else []
    return frozenset(pairs[i] for i in chosen)


def test_gen_random_arcs_match_explicit_pair_list():
    for n in range(1, 8):
        for arcs in sorted({0, n - 1, n * (n - 1) // 2, n * (n - 1)}):
            for seed in range(6):
                inst = gen_random(n, arcs, 0.5, seed, ploughs=0)
                assert inst.arcs == _gen_random_arcs_from_list(n, arcs, seed), (n, arcs, seed)


def test_gen_random_large_sparse_is_fast():
    start = time.perf_counter()
    inst = gen_random(20000, 5, 0.001, 3)
    assert time.perf_counter() - start < 1.0
    assert len(inst.arcs) == 5 and inst.n == 20000


def test_trees_command(capsys):
    assert run_cli(["trees", "--order", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert run_cli(["trees", "--order", "3", "--oriented"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert run_cli(["trees", "--order", "3", "--oriented", "--dedupe"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_json_output_is_byte_deterministic(toy1_file, capsys):
    args = ["solve", "--problem", "st", "--input", toy1_file, "--seed", "9", "--json"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first


def test_selftest_single_check(capsys):
    assert run_cli(["selftest", "--only", "tree-counts"]) == 0
    assert "PASS tree-counts" in capsys.readouterr().out
    assert run_cli(["selftest", "--only", "nope"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: unknown check 'nope'; known: [") and "'tree-counts'" in err


def test_usage_errors(tmp_path, toy1_file, capsys, monkeypatch):
    assert run_cli(["solve", "--problem", "st"]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.st"
    assert run_cli(["solve", "--problem", "st", "--input", str(missing)]) == 2
    bad = tmp_path / "bad.st"
    bad.write_text("st 2 1\nv 0 1 0\nv 1 0 0\na 1 1\n")
    assert run_cli(["solve", "--problem", "st", "--input", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert run_cli(["gen", "--family", "random", "--n", "2", "--arcs", "1", "--ploughs", "3"]) == 2
    assert "capacity" in capsys.readouterr().err
    random_gen = ["gen", "--family", "random", "--n", "3"]
    for extra, message in (
        ([], "needs --n and --arcs"),
        (["--arcs", "9"], "arc count must be in [0, 6]"),
        (["--arcs", "2", "--facilities", "1.5"], "facility probability"),
        (["--arcs", "2", "--ploughs", "-1"], "plough count must be nonnegative"),
    ):
        assert run_cli(random_gen + extra) == 2
        assert message in capsys.readouterr().err, extra
    assert run_cli(["solve", "--problem", "stu", "--input", toy1_file, "--k", "-1"]) == 2
    assert "k must be nonnegative" in capsys.readouterr().err
    assert run_cli(["trees", "--order", "4", "--dedupe"]) == 2
    assert "--oriented" in capsys.readouterr().err
    solve = ["solve", "--problem", "st", "--input", toy1_file]
    for jobs in ("0", "-3"):
        assert run_cli(solve + ["--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
    assert run_cli(solve + ["--trials", "2"]) == 2
    capsys.readouterr()
    # a directed path tree one vertex over the cap, on a path host it embeds
    # in (the host's first vertex has the root's one plough)
    n = MAX_ORDER + 1
    path = tmp_path / "path.st"
    path.write_text(
        f"st {n} {n - 1}\n"
        + "".join(f"v {i} 0 {int(i == 0)}\n" for i in range(n))
        + "".join(f"a {i} {i + 1}\n" for i in range(n - 1))
        + f"tree {' '.join(map(str, range(n)))} / {'d' * (n - 1)}\n"
    )
    start = time.perf_counter()
    assert run_cli(["solve", "--problem", "tpe", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "cap" in capsys.readouterr().err
    # nine facilities and nine ploughs on a 17-vertex path need candidate
    # trees of order 9 + 9 - 1 = 17
    over = tmp_path / "over.st"
    over.write_text(
        f"st {n} {n - 1}\n"
        + "".join(f"v {i} {int(i % 2 == 0)} {9 * (i == 0)}\n" for i in range(n))
        + "".join(f"a {i} {i + 1}\n" for i in range(n - 1))
    )
    assert run_cli(["solve", "--problem", "st", "--input", str(over)]) == 2
    assert "use the exact path" in capsys.readouterr().err
    # SNOWTEAM_SEED is no setting: it changes no command's exit code or output
    commands = (["trees", "--order", "3"], solve)
    plain = []
    for argv in commands:
        assert run_cli(argv) == 0
        plain.append(capsys.readouterr().out)
    monkeypatch.setenv("SNOWTEAM_SEED", "abc")
    for argv, out in zip(commands, plain):
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == out
