"""Input is checked once: each public entry point checks each partition
argument exactly once, and the engine's own loops check nothing."""

import sys

import pytest

from qschubert import combinat, isotropic, ring, typea, verify


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
def test_suites_check_no_partition(checked, suite):
    report = suite()
    assert report.ok and report.checked > 0
    assert checked == []


def test_qtilde_suite_canonicalises_no_partition(monkeypatch):
    seen = []
    partition = combinat.partition

    def counting(parts):
        seen.append(parts)
        return partition(parts)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qschubert" and getattr(module, "partition", None) is partition:
            monkeypatch.setattr(module, "partition", counting)
    report = verify.suite_qtilde_properties(max_n=3, max_weight=8)
    assert report.ok and report.checked > 0
    assert seen == []


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
