"""Acceptance suite: one test per check, one PASS/FAIL line each (run with -s
to see them; the CLI ``snowteam selftest`` prints the same lines)."""

import pytest

from snowteam.selfcheck import CHECKS, _rejects_rate_tenth


@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_detection_power_rejects_rate_tenth_from_31_hits():
    # exact binomial tail: P(X >= 30) >= 0.01 > P(X >= 31) for X ~ Bin(200, 0.1)
    assert [h for h in range(201) if not _rejects_rate_tenth(h)] == list(range(31))
