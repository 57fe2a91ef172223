import pytest

from qschubert import combinat as C, isotropic as I


def LG(n, coeffs):
    return I.IsoQHElement(I.LG, n, coeffs)


def OG(n, coeffs):
    return I.IsoQHElement(I.OG, n, coeffs)


def test_element_guards():
    with pytest.raises(ValueError):
        LG(2, {((2, 2), 0): 1})
    with pytest.raises(ValueError):
        LG(2, {((3,), 0): 1})
    assert LG(2, {((1,), 0): 0}).is_zero()
    assert LG(2, {}) != OG(2, {})


def test_quantum_pieri_lg_examples():
    assert I.quantum_pieri_lg((2, 1), 1, 2) == LG(2, {((1,), 1): 1})
    # strict targets only: one new box on (1) can only make (2)
    assert I.quantum_pieri_lg((1,), 1, 3) == LG(3, {((2,), 0): 2})
    assert I.quantum_pieri_lg((2,), 2, 2) == LG(2, {((1,), 1): 1})
    with pytest.raises(ValueError):
        I.quantum_pieri_lg((2, 2), 1, 3)
    with pytest.raises(ValueError):
        I.quantum_pieri_lg((1,), 0, 2)


def test_quantum_product_lg_examples():
    assert I.quantum_product_lg((2, 1), (1,), 2) == LG(2, {((1,), 1): 1})
    assert I.quantum_product_lg((), (), 3) == LG(3, {((), 0): 1})
    assert I.quantum_product_lg((1,), (1,), 2) == LG(2, {((2,), 0): 2})
    # two-row quantum Giambelli rearranged: s2*s1 = s[2,1] + q on LG(2,4)
    assert I.quantum_product_lg((2,), (1,), 2) == LG(2, {((2, 1), 0): 1, ((), 1): 1})


def test_lg_route_agreement_exhaustive():
    for n in range(1, 5):
        classes = C.strict_partitions_max(n)
        for lam in classes:
            for mu in classes:
                I.quantum_product_lg(lam, mu, n, cross_check=True)


def test_gw_lg_examples():
    assert I.gw_lg((1,), (1,), (1,), 1, 1) == 1
    # the point class on LG(2,4): its square is q^2, cross-checked by both routes
    assert I.quantum_product_lg((2, 1), (2, 1), 2, cross_check=True) == \
        LG(2, {((), 2): 1})
    assert I.gw_lg((2, 1), (2, 1), (2, 1), 2, 2) == 1
    assert I.gw_lg((2, 1), (2, 1), (), 1, 2) == 0
    # two general lines on LG(2,4) through a general point
    assert I.gw_lg((1,), (1,), (1,), 0, 2) == 2
    # degree mismatches
    assert I.gw_lg((1,), (1,), (1,), 1, 2) == 0
    assert I.gw_lg((2, 1), (2, 1), (2, 1), 1, 2) == 0
    assert I.gw_lg((1,), (1,), (2,), 0, 2) == 0


def test_line_number_checks():
    report = I.line_number_check_lg((1,), (1,), (1,), 1)
    assert report.ok and report.data["classical"] == 2
    for n in range(1, 4):
        target = n * (n + 1) // 2 + n + 1
        classes = C.strict_partitions_max(n)
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    if sum(lam) + sum(mu) + sum(nu) == target:
                        assert I.line_number_check_lg(lam, mu, nu, n).ok
    with pytest.raises(ValueError):
        I.line_number_check_lg((1,), (1,), (1,), 2)


def test_quantum_pieri_og_examples():
    assert I.quantum_pieri_og((2,), 2, 2) == OG(2, {((), 1): 1})
    assert I.quantum_pieri_og((2,), 1, 2) == OG(2, {((2, 1), 0): 1})
    assert I.quantum_pieri_og((2, 1), 2, 2) == OG(2, {((1,), 1): 1})


def test_quantum_product_og_examples():
    assert I.quantum_product_og((2,), (2,), 2) == OG(2, {((), 1): 1})
    # multiplication by the top special class moves the full row in or out
    assert I.quantum_product_og((3, 1), (3,), 3) == OG(3, {((1,), 1): 1})
    assert I.quantum_product_og((2, 1), (3,), 3) == OG(3, {((3, 2, 1), 0): 1})


def test_og_route_agreement_exhaustive():
    for n in range(1, 5):
        classes = C.strict_partitions_max(n)
        for lam in classes:
            for mu in classes:
                I.quantum_product_og(lam, mu, n, cross_check=True)


def test_gw_og_examples():
    assert I.gw_og((2, 1), (), (), 0, 2) == 1
    # vanishing for short first argument
    for mu in C.strict_partitions_max(1):
        for nu in C.strict_partitions_max(1):
            assert I.gw_og((1,), mu, nu, 1, 2) == 0


def test_duality_examples():
    report = I.duality_check((2, 1), (), (), 0, 2)
    assert report.ok and report.data == {"og": 1, "lg": 1}
    report = I.duality_check((1,), (), (), 1, 2)
    assert report.ok and report.data["lg"] is None
    for n in range(1, 4):
        for lam in C.strict_partitions_max(n):
            if not lam:
                continue
            for mu in C.strict_partitions_max(n - 1):
                for nu in C.strict_partitions_max(n - 1):
                    for d in range(0, n + 1):
                        assert I.duality_check(lam, mu, nu, d, n).ok


def test_presentation_reports():
    for n in range(1, 5):
        for flavor in (I.LG, I.OG):
            report = I.presentation_report_isotropic(flavor, n)
            assert report.ok, (flavor, n, report.failures)
    with pytest.raises(ValueError):
        I.presentation_report_isotropic("SP", 2)


def test_products_emit_strict_graded_keys():
    assert I.Space(I.LG, None, 3).q_degree == 4 and I.Space(I.OG, None, 3).q_degree == 6
    for n in range(1, 4):
        classes = C.strict_partitions_max(n)
        for lam in classes:
            for mu in classes:
                for elem in (I.quantum_product_lg(lam, mu, n),
                             I.quantum_product_og(lam, mu, n)):
                    deg = elem.space.q_degree
                    for (nu, d), c in elem.coeffs.items():
                        assert C.is_strict(nu)
                        assert sum(nu) + d * deg == sum(lam) + sum(mu)


def test_gw_nonnegative_small():
    for n in range(1, 5):
        classes = C.strict_partitions_max(n)
        dim = n * (n + 1) // 2
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    total = sum(lam) + sum(mu) + sum(nu)
                    d, r = divmod(total - dim, n + 1)
                    if r == 0 and d >= 0:
                        assert I.gw_lg(lam, mu, nu, d, n) >= 0
                    d, r = divmod(total - dim, 2 * n)
                    if r == 0 and d >= 0:
                        assert I.gw_og(lam, mu, nu, d, n) >= 0


def test_text_symbols():
    assert I.quantum_product_og((2,), (2,), 2).text() == "q*t[]"
    assert I.quantum_product_lg((2,), (1,), 2).text() == "s[2,1] + q*s[]"
