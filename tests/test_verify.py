"""The verification suites: the graded walk is the degree rule, the suite
counts are pinned, and a symmetry fault planted on LG or OG is caught."""

from itertools import product

import pytest

from qschubert import combinat as C, ring, verify
from qschubert.ring import A, LG, OG, Space


def _grids():
    """(space, classes, degrees) for every G(m, N) with N <= 6 and every LG
    and OG with n <= 4, over the degrees their suites walk."""
    for N in range(1, 7):
        for m in range(N + 1):
            space = Space(A, m, N - m)
            yield pytest.param(space, C.partitions_in_box(m, N - m),
                               range(min(m, N - m) + 1), id=space.label)
    for n in range(1, 5):
        for kind in (LG, OG):
            space = Space(kind, None, n)
            yield pytest.param(space, C.strict_partitions_max(n),
                               range(2 * space.dim // space.q_degree + 1), id=space.label)


@pytest.mark.parametrize("space, classes, degrees", list(_grids()))
def test_the_graded_walk_is_the_degree_rule(space, classes, degrees):
    walk = list(verify._graded(space, classes, degrees))
    assert all(nus for *_, nus in walk)
    want = [(d, lam, mu, nu) for d in degrees for lam, mu, nu in product(classes, repeat=3)
            if space.in_degree(d, lam, mu, nu)]
    assert [(d, lam, mu, nu) for d, lam, mu, nus in walk for nu in nus] == want
    if space.kind != A:
        # three classes weigh at most 3 * dim: the next degree has no triple
        assert not any(space.in_degree(degrees[-1] + 1, *t) for t in product(classes, repeat=3))


@pytest.mark.parametrize("suite, checks", [
    (lambda: verify.suite_symmetry(max_N=5, max_n=3), 1487),
    (lambda: verify.suite_puzzle_conjecture(max_N=6), 20893),
    (lambda: verify.suite_line_numbers(max_n=3), 68),
], ids=["symmetry", "puzzle-conjecture", "line-numbers"])
def test_suite_counts_are_pinned(suite, checks):
    report = suite()
    assert report.ok, report.failures
    assert report.checked == checks


@pytest.mark.parametrize("kind", [LG, OG])
def test_an_isotropic_s3_fault_fails_the_symmetry_suite(monkeypatch, kind):
    # the product of a pair in the order lam > mu has one coefficient off by
    # one, so the invariant that reads it differs from its swapped order
    exact = ring.PRODUCT[kind]

    def skewed(space, lam, mu):
        coeffs = exact(space, lam, mu)
        if lam > mu and coeffs:
            key = min(coeffs)
            coeffs = {**coeffs, key: coeffs[key] + 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, kind, skewed)
    ring.clear_caches()
    try:
        report = verify.suite_symmetry(max_N=1, max_n=3)
    finally:
        ring.clear_caches()
    assert not report.ok
    assert all(f.startswith(f"S3 fails on {kind}(") for f in report.failures)
