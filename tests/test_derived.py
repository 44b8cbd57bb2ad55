"""Derived instances: the condensation, the closure, base promotions, max-st
facility subsets and stu's free host are built from rows their builder holds,
without the constructor's arc scan.  Each must be the instance the validating
constructor builds from its arcs and weights, masks included, and keep them
through pickle (worker processes receive promotions pickled).  The rows are
an instance's only adjacency: its arc set is read off them only when asked."""

import itertools
import pickle
import random
from dataclasses import replace

from snowteam import digraph, solvers
from snowteam.digraph import (
    Instance,
    bits,
    condense,
    make_instance,
    parse_instance,
    serialize_instance,
    transitive_closure,
)
from snowteam.exact import solve_variant_exact
from snowteam.solvers import (
    SolveParams,
    _base_reach_connects_facilities,
    _promotions,
    solve_max_st,
    solve_min_st,
    solve_st,
    solve_stu,
)


def _masks(inst):
    return inst.out_mask, inst.in_mask, inst.fac_mask, inst.base_mask


def _assert_as_built(derived):
    """derived equals and hashes like the validated instance on its arcs and
    weights, with the same rows and masks, before and after a pickle round
    trip, and ``replace`` rebuilds it with new weights."""
    back = pickle.loads(pickle.dumps(derived))  # before its arc set is read
    built = Instance(
        n=derived.n, arcs=derived.arcs, facility=derived.facility, ploughs=derived.ploughs
    )
    assert derived == built and hash(derived) == hash(built)
    assert _masks(derived) == _masks(built)
    assert back == built and back.arcs == built.arcs
    assert _masks(back) == _masks(built)
    ploughs = derived.ploughs[::-1]
    assert replace(derived, ploughs=ploughs) == replace(built, ploughs=ploughs)


def _random_instances(seed, count):
    """Seeded random digraphs, cycles allowed, n 1-9, random facilities and ploughs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, k=rng.randint(0, min(14, len(pairs))))
        fac = set(rng.sample(range(n), k=rng.randint(0, n)))
        bases = rng.sample(range(n), k=rng.randint(0, min(n, 3)))
        pl = {v: rng.randint(0, n - 1) for v in bases}
        yield make_instance(n, arcs, fac, pl)


def test_derived_instances_equal_the_validated_ones(monkeypatch):
    settled = []  # every instance _settled is asked about: stu's free host, max-st's subsets
    real = solvers._settled
    monkeypatch.setattr(solvers, "_settled", lambda inst: settled.append(inst) or real(inst))
    checked = {"promotions": 0, "subsets": 0, "free hosts": 0}
    for inst in _random_instances(29, 80):
        dag = condense(inst)
        _assert_as_built(dag)
        _assert_as_built(transitive_closure(inst))
        _assert_as_built(transitive_closure(dag))
        for sub in _promotions(dag):
            _assert_as_built(sub)
            checked["promotions"] += 1
        settled.clear()
        try:
            solve_max_st(inst, SolveParams(seed=3))
        except ValueError:  # beyond the enumeration cap: no subset is built
            pass
        for sub in settled[-1:]:  # the last facility subset decided
            assert sub.out_mask is inst.out_mask and sub.ploughs == inst.ploughs
            _assert_as_built(sub)
            checked["subsets"] += 1
        settled.clear()
        try:
            solve_stu(inst, 1, SolveParams(seed=3))
        except ValueError:
            pass
        (free,) = settled
        assert free.ploughs == (inst.n - 1,) * inst.n and free.out_mask is inst.out_mask
        _assert_as_built(free)
        checked["free hosts"] += 1
    assert min(checked.values()) >= 20, checked


def _every_promotion(host):
    """All 2^b reweightings of host that promote a subset of its b bases
    outside F, in subset order, whatever the precheck says."""
    extra = bits(host.base_mask & ~host.fac_mask)
    for size in range(len(extra) + 1):
        for subset in itertools.combinations(extra, size):
            promoted = host.fac_mask | sum(1 << v for v in subset)
            yield host._reweighted(
                tuple(bool(promoted >> v & 1) for v in range(host.n)),
                tuple(b if promoted >> v & 1 else 0 for v, b in enumerate(host.ploughs)),
            )


def test_a_restricted_host_is_its_only_promotion():
    seen = 0
    for inst in _random_instances(37, 80):
        h = condense(inst)
        if h.base_mask & ~h.fac_mask:
            passing = [p for p in _every_promotion(h) if _base_reach_connects_facilities(p)]
            assert list(_promotions(h)) == passing
            continue
        assert [p is h for p in _promotions(h)] == [True]
        seen += 1
    assert seen >= 10


def test_facilities_and_bases_read_the_masks():
    for inst in _random_instances(41, 40):
        parsed = parse_instance(serialize_instance(inst))
        derived = [condense(inst), transitive_closure(inst), *_promotions(condense(inst))]
        for d in [inst, parsed, *derived]:
            assert d.fac_mask == sum(1 << v for v in range(d.n) if d.facility[v])
            assert d.base_mask == sum(1 << v for v in range(d.n) if d.ploughs[v])
            assert d.facilities() == frozenset(bits(d.fac_mask))
            assert d.bases() == frozenset(bits(d.base_mask))


def test_the_precheck_gives_a_closed_host_its_own_verdict():
    """Seeded property behind ``_promotions``' precheck on a closed host: the
    closure of a host, cycles allowed, of its condensation and of every
    promotion of that condensation, failing ones included, gets the verdict
    of the host itself."""
    verdicts = {True: 0, False: 0}
    for inst in _random_instances(43, 300):
        dag = condense(inst)
        for host in (inst, dag, *_every_promotion(dag)):
            verdict = _base_reach_connects_facilities(host)
            assert _base_reach_connects_facilities(transitive_closure(host)) == verdict, host
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_no_derived_instance_builds_an_arc_set(monkeypatch):
    """Every pipeline, the exact engines and the verifier read rows only: no
    instance derived on the way holds an arc set, and a constructed one
    builds its own only when ``arcs`` is read."""
    derived = []
    real = digraph._derive

    def spy(*args):
        derived.append(real(*args))
        return derived[-1]

    monkeypatch.setattr(digraph, "_derive", spy)
    params = SolveParams(seed=3)
    runs = [
        lambda inst: solve_st(inst, params),
        lambda inst: solve_min_st(inst, params),
        lambda inst: solve_max_st(inst, params),
        lambda inst: solve_stu(inst, 1, params),
        lambda inst: solve_variant_exact(inst, "min-st"),
        lambda inst: solve_variant_exact(inst, "max-st"),
        lambda inst: solve_variant_exact(inst, "stu", 1),
    ]
    for inst in _random_instances(47, 60):
        for run in runs:
            try:
                run(inst)
            except ValueError:  # beyond an enumeration cap or an exact limit
                pass
        assert "arcs" not in inst.__dict__
        assert isinstance(inst.arcs, frozenset) and "arcs" in inst.__dict__
    assert len(derived) >= 500, len(derived)
    assert not [d for d in derived if "arcs" in d.__dict__]
