"""Property tests: the randomized pipelines against the exact oracles on
random instances with at most six vertices.

Examples are derandomized and no example database is kept, so every run
checks the same instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from snowteam.digraph import make_instance
from snowteam.exact import solve_st_exact, solve_variant_exact
from snowteam.solvers import SolveParams, solve_max_st, solve_min_st, solve_st, solve_stu

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def instances(draw, min_ploughs=1, max_ploughs=3):
    """n in 3..6, n-1 to 10 arcs, 2 or 3 facilities, plough counts capped at n-1."""
    n = draw(st.integers(3, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=10, unique=True))
    facilities = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=3))
    ploughs: dict[int, int] = {}
    for v in draw(st.lists(st.integers(0, n - 1), min_size=min_ploughs, max_size=max_ploughs)):
        ploughs[v] = min(ploughs.get(v, 0) + 1, n - 1)
    return make_instance(n, arcs, facilities, ploughs)


@PROPERTY
@given(instances(), st.integers(0, 10**6))
def test_st_matches_exact(inst, seed):
    assert solve_st(inst, SolveParams(seed=seed)).answer == solve_st_exact(inst)[0]


@PROPERTY
@given(instances(), st.integers(0, 10**6))
def test_min_st_matches_exact(inst, seed):
    assert solve_min_st(inst, SolveParams(seed=seed)).optimum == solve_variant_exact(inst, "min-st")


@PROPERTY
@given(instances(), st.integers(0, 10**6))
def test_max_st_matches_exact(inst, seed):
    assert solve_max_st(inst, SolveParams(seed=seed)).optimum == solve_variant_exact(inst, "max-st")


@PROPERTY
@given(instances(min_ploughs=0, max_ploughs=0), st.integers(0, 2), st.integers(0, 10**6))
def test_stu_matches_exact(inst, k, seed):
    assert solve_stu(inst, k, SolveParams(seed=seed)).answer == solve_variant_exact(inst, "stu", k=k)
