"""Input is checked once: each public entry point checks each partition
argument exactly once, and the engine's own loops check nothing."""

import inspect
import os
import re
import sys
from itertools import product

import pytest

from qschubert import combinat, isotropic, qpoly, ring, typea, verify


@pytest.fixture
def checked(monkeypatch):
    """The arguments of every Space.check call, in order."""
    seen = []
    check = ring.Space.check

    def counting(space, lam):
        seen.append(lam)
        return check(space, lam)

    monkeypatch.setattr(ring.Space, "check", counting)
    return seen


@pytest.mark.parametrize("suite", [
    lambda: verify.suite_puzzle_conjecture(max_N=5),
    lambda: verify.suite_symmetry(max_N=4, max_n=2),
], ids=["puzzle-conjecture", "symmetry"])
def test_suites_check_no_partition(monkeypatch, checked, suite):
    # one CPU: a forked worker's calls would not reach the recorder
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    report = suite()
    assert report.ok and report.checked > 0
    assert checked == []


SUITE_BOUNDS = [(name, bound) for name, suite in verify.SUITES.items()
                for bound in inspect.signature(suite).parameters]


@pytest.mark.parametrize("value", [True, 2.5, 1.0])
@pytest.mark.parametrize("name, bound", SUITE_BOUNDS, ids=[f"{n}-{b}" for n, b in SUITE_BOUNDS])
def test_suites_refuse_a_bound_that_is_not_an_int(name, bound, value):
    with pytest.raises(ValueError, match=re.escape(f"{bound}={value!r}")):
        verify.SUITES[name](**{bound: value})


def test_an_int_bound_below_every_grid_is_an_empty_run():
    assert len(SUITE_BOUNDS) == 9
    report = verify.suite_puzzle_conjecture(max_N=1)
    assert report.ok and report.checked == 0


@pytest.fixture
def canonicalised(monkeypatch):
    """The arguments of every combinat.partition call, in order."""
    seen = []
    partition = combinat.partition

    def counting(parts):
        seen.append(parts)
        return partition(parts)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qschubert" and getattr(module, "partition", None) is partition:
            monkeypatch.setattr(module, "partition", counting)
    return seen


def test_qtilde_suite_canonicalises_no_partition(canonicalised):
    report = verify.suite_qtilde_properties(max_n=3, max_weight=8)
    assert report.ok and report.checked > 0
    assert canonicalised == []


def test_epoly_monomial_canonicalises_its_partition_once(canonicalised):
    assert qpoly.EPoly.monomial(3, [2, 1]).coeffs == {(2, 1): 1}
    assert canonicalised == [(2, 1)]


def test_ptilde_structure_canonicalises_each_argument_once(canonicalised):
    assert qpoly.ptilde_structure([2, 1], [1], 3) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    assert canonicalised == [[2, 1], [1]]


@pytest.mark.parametrize("kind", [ring.LG, ring.OG])
def test_isotropic_products_canonicalise_no_partition(canonicalised, kind):
    space = ring.Space(kind, None, 3)
    classes = combinat.strict_partitions_max(3)
    ring.clear_caches()
    for lam in classes:
        for mu in classes:
            ring.PRODUCT[kind](space, lam, mu)
    assert canonicalised == []


@pytest.mark.parametrize("kind", [ring.LG, ring.OG])
def test_isotropic_pieri_folds_canonicalise_no_partition(canonicalised, kind):
    # the LG and OG Pieri rules read the components of skew shapes the
    # engine built, without checking those shapes again
    space = ring.Space(kind, None, 3)
    classes = combinat.strict_partitions_max(3)
    ring.clear_caches()
    for lam in classes:
        for mu in classes:
            ring.giambelli_fold(space, lam, mu)
    assert canonicalised == []


def test_puzzle_suite_compares_every_coefficient(monkeypatch):
    # one coefficient of one ordered product on G(2,4) is off by one: exactly
    # the checks reading it fail, the 1-step one for every nu at d = 0 and
    # the 2-step one for every degree-matching nu
    space = ring.Space(ring.A, 2, 2)
    classes = combinat.partitions_in_box(2, 2)
    exact = ring.PRODUCT[ring.A]
    for lam, mu, nu in product(classes, repeat=3):
        for d in range(3):
            branches = ({"1step"} if d == 0 else set()) | (
                {"2step"} if space.in_degree(d, lam, mu, nu) else set())
            if not branches:
                continue
            key = (space.dual(nu), d)

            def mutated(sp, a, b):
                coeffs = exact(sp, a, b)
                if (sp, a, b) == (space, lam, mu):
                    coeffs = {**coeffs, key: coeffs.get(key, 0) + 1}
                return coeffs

            monkeypatch.setitem(ring.PRODUCT, ring.A, mutated)
            report = verify.suite_puzzle_conjecture(max_N=4)
            assert not report.ok
            assert sorted(f.split()[0] for f in report.failures) == sorted(branches)
            assert all(f"{lam},{mu},{nu}:" in f for f in report.failures)


CALLS = [
    ("gw_a", lambda *x: typea.gw_a(*x, 1, 3, 3), 3),
    ("gw_a_puzzle", lambda *x: typea.gw_a_puzzle(*x, 1, 3, 3), 3),
    ("gw_lg", lambda *x: isotropic.gw_lg(*x, 1, 3), 3),
    ("gw_og", lambda *x: isotropic.gw_og(*x, 1, 3), 3),
    ("quantum_product_a", lambda *x: typea.quantum_product_a(*x, 3, 3), 2),
    ("quantum_product_lg", lambda *x: isotropic.quantum_product_lg(*x, 3), 2),
    ("quantum_product_og", lambda *x: isotropic.quantum_product_og(*x, 3), 2),
]


@pytest.mark.parametrize("call, arity", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_entry_points_check_each_partition_once(checked, call, arity):
    # lists, not tuples, so that each check is seen on the caller's value
    args = [[3, 2, 1], [2, 1], [1]][:arity]
    call(*args)
    assert checked == args
