import json

import pytest

from snowteam.cli import gen_random, run_cli
from snowteam.digraph import parse_instance

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


def test_verify_command(toy1_file, tmp_path):
    good = tmp_path / "good.walks"
    good.write_text("0 1 2\n")
    bad = tmp_path / "bad.walks"
    bad.write_text("0 1\n")
    assert run_cli(["verify", "--input", toy1_file, "--walks", str(good)]) == 0
    assert run_cli(["verify", "--input", toy1_file, "--walks", str(bad)]) == 1


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


def test_usage_errors(tmp_path, capsys):
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
