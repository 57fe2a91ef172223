"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison below is strict equality;
each test also enforces its runtime budget and prints one line.
"""

import time
from itertools import product

from qschubert import combinat as C, qpoly as Q, typea as A, verify
from qschubert.typea import QHElement


def _pass(number, label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {label}")


def test_criterion_01_g24_hyperplane_powers():
    t0 = time.monotonic()
    square = A.quantum_product_a((1,), (1,), 2, 2)
    assert square == QHElement(2, 2, {((2,), 0): 1, ((1, 1), 0): 1})
    cube = A.multiply_element_by_class(square, (1,), 2, 2)
    assert cube == QHElement(2, 2, {((2, 1), 0): 2})
    fourth = A.multiply_element_by_class(cube, (1,), 2, 2)
    assert {k: c for k, c in fourth.coeffs.items() if k[1] == 0} == {((2, 2), 0): 2}
    _pass(1, "G(2,4) powers of the hyperplane class", t0, 1.0)


def test_criterion_02_degree_one_invariant_both_routes():
    t0 = time.monotonic()
    args = ((3, 2, 1), (3, 2, 1), (2, 1), 1, 3, 3)
    assert A.gw_a(*args) == 2
    assert A.gw_a_puzzle(*args) == 2
    _pass(2, "degree-one invariant on G(3,6) equals 2 via both routes", t0, 10.0)


def test_criterion_03_quantum_pieri_worked_product():
    t0 = time.monotonic()
    assert A.quantum_pieri_a((3, 2, 1), 2, 3, 3) == QHElement(3, 3, {
        ((3, 3, 2), 0): 1, ((2,), 1): 1, ((1, 1), 1): 1})
    _pass(3, "quantum Pieri product on G(3,6)", t0, 1.0)


def test_criterion_04_string_golden_values():
    t0 = time.monotonic()
    assert C.to_01_string((4, 4, 3, 1), 4, 5).symbols == "101101001"
    assert C.grassmann_permutation((4, 4, 3, 1), 4, 5) == (2, 5, 7, 8, 1, 3, 4, 6, 9)
    assert C.jd_string((4, 4, 3, 1), 4, 5, 2).symbols == "101202112"
    assert C.jd_string((3, 2, 1), 3, 3, 1).symbols == "102021"
    assert C.jd_string((2, 1), 3, 3, 1).symbols == "010212"
    _pass(4, "string encodings", t0, 1.0)


def test_criterion_05_structure_constant_minus_four():
    t0 = time.monotonic()
    assert Q.qtilde_structure((3, 2, 1), (3, 2, 1), 4)[(4, 4, 2, 2)] == -4
    _pass(5, "structure constant -4 at (4,4,2,2), n=4", t0, 30.0)


def test_criterion_06_presentations():
    t0 = time.monotonic()
    report = verify.suite_presentations(max_N=8, max_n=4)
    assert report.ok, report.failures
    _pass(6, f"ring presentations ({report.checked} identities)", t0, 300.0)


def test_criterion_07_puzzle_conjecture_cross_check():
    t0 = time.monotonic()
    report = verify.suite_puzzle_conjecture(max_N=8)
    assert report.ok, report.failures
    _pass(7, f"puzzle counts equal Pieri-route invariants ({report.checked} triples)",
          t0, 1800.0)


def test_criterion_08_orthogonal_lagrangian_duality():
    t0 = time.monotonic()
    report = verify.suite_duality(max_n=4)
    assert report.ok, report.failures
    _pass(8, f"OG/LG duality ({report.checked} comparisons)", t0, 600.0)


def test_criterion_09_line_numbers():
    t0 = time.monotonic()
    report = verify.suite_line_numbers(max_n=3)
    assert report.ok, report.failures
    _pass(9, f"line numbers are half classical triples ({report.checked} cases)",
          t0, 300.0)


def test_criterion_10_qtilde_property_suite():
    t0 = time.monotonic()
    report = verify.suite_qtilde_properties(max_n=4, max_weight=12)
    assert report.ok, report.failures
    _pass(10, f"Pfaffian-polynomial properties ({report.checked} checks)", t0, 600.0)


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    checked = 0

    # commutativity and S3 symmetry for all flavors
    report = verify.suite_symmetry(max_N=7, max_n=4)
    assert report.ok, report.failures
    checked += report.checked

    # associativity: exhaustive on G(2,4) and G(2,5), sampled on G(3,6)
    for m, n, triples in [
        (2, 2, product(C.partitions_in_box(2, 2), repeat=3)),
        (2, 3, product(C.partitions_in_box(2, 3), repeat=3)),
        (3, 3, [(lam, mu, nu)
                for lam in C.partitions_in_box(3, 3)[::3]
                for mu in C.partitions_in_box(3, 3)[::4]
                for nu in C.partitions_in_box(3, 3)[::5]]),
    ]:
        for lam, mu, nu in triples:
            left = A.multiply_element_by_class(A.quantum_product_a(lam, mu, m, n), nu, m, n)
            right = A.multiply_element_by_class(A.quantum_product_a(mu, nu, m, n), lam, m, n)
            assert left == right, (lam, mu, nu, m, n)
            checked += 1

    # grading, duality pairing, and no-quantum-term criterion, N <= 8
    for N in range(2, 9):
        for m in range(1, N):
            n = N - m
            classes = C.partitions_in_box(m, n)
            point = (n,) * m
            for lam in classes:
                for mu in classes:
                    prod = A.quantum_product_a(lam, mu, m, n)
                    for (nu, d), c in prod.coeffs.items():
                        assert sum(nu) + d * N == sum(lam) + sum(mu)
                        assert d <= min(m, n), (lam, mu, m, n)
                    if len(lam) + len(mu) <= m:
                        assert all(d == 0 for (_, d) in prod.coeffs), (lam, mu, m, n)
                    if sum(lam) + sum(mu) == m * n:
                        want = 1 if C.rect_dual(lam, m, n) == mu else 0
                        assert prod.coefficient(point, 0) == want
                    checked += 1

    # vanishing when the d-th part is smaller than d: G(2,4) and G(3,6)
    def part(lam, d):
        return lam[d - 1] if d <= len(lam) else 0

    for m, n in [(2, 2), (3, 3)]:
        N = m + n
        classes = C.partitions_in_box(m, n)
        by_weight = {}
        for lam in classes:
            by_weight.setdefault(sum(lam), []).append(lam)
        for d in range(1, min(m, n) + 1):
            for lam in classes:
                for mu in classes:
                    w = m * n + d * N - sum(lam) - sum(mu)
                    if not 0 <= w <= m * n:
                        continue
                    for nu in by_weight.get(w, ()):
                        if min(part(lam, d), part(mu, d), part(nu, d)) < d:
                            assert A.gw_a(lam, mu, nu, d, m, n) == 0
                            checked += 1

    # nonzero invariants force a nonzero product of column-stripped classes
    # one space up, N <= 7
    for N in range(2, 8):
        for m in range(1, N):
            n = N - m
            classes = C.partitions_in_box(m, n)
            by_weight = {}
            for lam in classes:
                by_weight.setdefault(sum(lam), []).append(lam)
            for d in range(1, min(m, n) + 1):
                for lam in classes:
                    for mu in classes:
                        w = m * n + d * N - sum(lam) - sum(mu)
                        if not 0 <= w <= m * n:
                            continue
                        for nu in by_weight.get(w, ()):
                            if not A.gw_a(lam, mu, nu, d, m, n):
                                continue
                            bl, bm, bn = (C.remove_columns(x, d) for x in (lam, mu, nu))
                            m2, n2 = m + d, n - d
                            pair = A.quantum_product_a(bl, bm, m2, n2)
                            classical = QHElement(m2, n2, {
                                (k, 0): c for (k, dd), c in pair.coeffs.items() if dd == 0})
                            total = A.multiply_element_by_class(classical, bn, m2, n2)
                            assert any(dd == 0 and c for (k, dd), c in total.coeffs.items()), \
                                (lam, mu, nu, d, m, n)
                            checked += 1

    _pass(11, f"property battery ({checked} checks)", t0, 1800.0)
