"""Tests of the benchmark's own logic: checks, helpers and tracing.

Run with: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Target, Tracer  # noqa: E402

st = workloads.load_snowteam()

# a restricted NO instance: facilities 0 and 2 hang off 1 by arcs into 1
NO_SPEC = {"n": 3, "arcs": [[0, 1], [2, 1]], "facilities": [0, 2], "ploughs": [1, 0, 0]}


def _op(spec=NO_SPEC):
    return {"kind": "st", "spec": spec, "label": "test"}


def _fake_st(**overrides):
    """The real package with some names replaced."""
    return SimpleNamespace(**{**vars(st), **overrides})


def test_oracle_and_solver_agree_on_the_test_instance():
    op = _op()
    built = workloads.build(op, st)
    expected = workloads.expected_answer(op, st)
    assert expected is False
    _, _, reason, wrong = workloads.attempt(op, built, expected, st)
    assert reason is None and not wrong


def test_flipped_expected_answer_is_a_wrong_failure():
    op = _op()
    built = workloads.build(op, st)
    _, _, reason, wrong = workloads.attempt(op, built, True, st)
    assert reason == "answer False, expected True"
    assert wrong


def test_solver_exception_is_a_failure_not_a_crash():
    def boom(*args, **kwargs):
        raise RuntimeError("solver broke")

    op = _op()
    built = workloads.build(op, st)
    solve_s, checked_s, reason, wrong = workloads.attempt(op, built, False, _fake_st(solve_st=boom))
    assert "solver broke" in reason
    assert not wrong
    assert 0 <= solve_s <= checked_s


def test_failure_bound_above_limit_is_a_failure():
    def loose(inst, params):
        return st.SolveReport(answer=False, detections_run=1, failure_bound=2e-3)

    op = _op()
    built = workloads.build(op, st)
    _, _, reason, wrong = workloads.attempt(op, built, False, _fake_st(solve_st=loose))
    assert reason.startswith("failure bound 2.00e-03")
    assert wrong


def test_bound_at_the_limit_passes():
    def tight(inst, params):
        return st.SolveReport(answer=False, detections_run=1, failure_bound=1e-3)

    op = _op()
    built = workloads.build(op, st)
    assert workloads.attempt(op, built, False, _fake_st(solve_st=tight))[2] is None


def test_median_and_normalisation_on_fixed_inputs():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert measure.median(x for x in [5.0]) == 5.0
    assert measure.normalised(2.0, 0.5, 1.5) == 2.0
    assert measure.normalised(0.3, 0.01, 0.02) == pytest.approx(20.0)


def test_reference_loop_takes_positive_time():
    assert measure.reference_loop() > 0


def test_ops_repeat_per_seed_and_keep_instance_shapes():
    catalogue = workloads.load_catalogue()
    a = workloads.make_ops("st-no", 7, catalogue, None)
    assert a == workloads.make_ops("st-no", 7, catalogue, None)
    assert a != workloads.make_ops("st-no", 8, catalogue, None)
    def shape(spec):
        return len(spec["arcs"]), len(spec["facilities"]), sorted(spec["ploughs"])

    assert sorted(shape(op["spec"]) for op in a) == sorted(map(shape, catalogue["st-no"]))


def test_order_keeping_perm_keeps_special_order():
    rng = workloads.random.Random(3)
    for _ in range(20):
        perm = workloads._order_keeping_perm(8, {1, 4, 6}, rng)
        assert sorted(perm) == list(range(8))
        assert perm[1] < perm[4] < perm[6]


def test_gadget_ops_span_optimum_and_one_less():
    from snowteam.selfcheck import SAMPLE_COVER

    ops = workloads.make_ops("gadget-exact", 1, workloads.load_catalogue(), SAMPLE_COVER)
    assert len(ops) % 2 == 1
    sample = [op for op in ops if op["spec"]["n_items"] == SAMPLE_COVER.n_items
              and sorted(map(tuple, op["spec"]["sets"])) == sorted(SAMPLE_COVER.sets)]
    assert sorted(op["spec"]["k"] for op in sample) == [1, 2, 3]
    assert [workloads.expected_answer(op, st) for op in sorted(sample, key=lambda o: o["spec"]["k"])] == [False, True, True]


def test_missing_wrapper_target_reports_layer_absent():
    tracer = Tracer(targets=(
        Target("solvers.filter", "snowteam.solvers", "_no_such_function"),
        Target("trees.enum", "snowteam.solvers", "candidate_stream", generator=True),
    ))
    tracer.install()
    try:
        assert tracer.absent == ["snowteam.solvers._no_such_function"]
        assert tracer.absent_layers() == ["solvers"]
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(rounds=1, wall_s=1.0)
    assert metrics["solvers.filter_calls"] == (0.0, "count")


def test_wrappers_replace_names_in_the_calling_module_and_restore_them():
    import snowteam.solvers as solvers
    import snowteam.trees as trees

    original = solvers.candidate_stream
    tracer = Tracer()
    tracer.install()
    try:
        assert solvers.candidate_stream is not original
        assert trees.candidate_stream is solvers.candidate_stream
        op = _op({"n": 4, "arcs": [[0, 1], [1, 2], [3, 2]], "facilities": [0, 3], "ploughs": [1, 0, 0, 1]})
        built = workloads.build(op, st)
        t0 = measure.time.perf_counter()
        _, _, reason, _ = workloads.attempt(op, built, workloads.expected_answer(op, st), st)
        wall = measure.time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert solvers.candidate_stream is original and trees.candidate_stream is original
    assert reason is None
    names = {s.name for s in tracer.spans}
    assert {"solvers.solve", "trees.enum", "solvers.filter", "digraph.closure"} <= names
    m = tracer.layer_metrics(rounds=1, wall_s=wall)
    assert m["trees.candidates"][0] > 0
    assert m["trace.remainder_s"][0] >= 0
    total_self = sum(s.self_s for s in tracer.spans)
    assert total_self + m["trace.remainder_s"][0] == pytest.approx(wall)
