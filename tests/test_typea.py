import hashlib
import itertools
import json
import pathlib
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qschubert import cli, combinat as C, ring, typea as A

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference" / "typea_products.json"


def E(m, n, coeffs):
    return A.QHElement(m, n, coeffs)


def test_quantum_pieri_examples():
    assert A.quantum_pieri_a((3, 2, 1), 2, 3, 3) == E(3, 3, {
        ((3, 3, 2), 0): 1, ((2,), 1): 1, ((1, 1), 1): 1})
    assert A.quantum_pieri_a((1,), 1, 2, 2) == E(2, 2, {((2,), 0): 1, ((1, 1), 0): 1})
    assert A.quantum_pieri_a((2, 1), 1, 2, 2) == E(2, 2, {((2, 2), 0): 1, ((), 1): 1})
    # no quantum terms unless every one of the m rows can lose a box
    assert A.quantum_pieri_a((2,), 2, 2, 2) == E(2, 2, {((2, 2), 0): 1})
    with pytest.raises(ValueError):
        A.quantum_pieri_a((1,), 3, 2, 2)
    with pytest.raises(ValueError):
        A.quantum_pieri_a((3,), 1, 2, 2)


def test_giambelli_monomials_examples():
    assert A.giambelli_monomials((1, 1), 2, 2) == [
        A.SpecialMonomial(1, (1, 1)), A.SpecialMonomial(-1, (2,))]
    assert A.giambelli_monomials((2,), 1, 3) == [A.SpecialMonomial(1, (2,))]
    assert A.giambelli_monomials((), 2, 2) == [A.SpecialMonomial(1, ())]


def test_quantum_product_examples():
    assert A.quantum_product_a((1,), (1,), 2, 2) == E(2, 2, {
        ((2,), 0): 1, ((1, 1), 0): 1})
    assert A.quantum_product_a((2,), (1, 1), 2, 2) == E(2, 2, {((), 1): 1})
    for m, n in [(0, 2), (2, 0)]:
        with pytest.raises(ValueError):
            A.presentation_report_a(m, n)
    assert A.quantum_product_a((2, 2), (), 2, 2) == E(2, 2, {((2, 2), 0): 1})
    # worked product on G(3,6)
    assert A.quantum_product_a((3, 2, 1), (2,), 3, 3) == E(3, 3, {
        ((3, 3, 2), 0): 1, ((2,), 1): 1, ((1, 1), 1): 1})


def test_g24_powers_of_hyperplane():
    s1 = A.quantum_product_a((1,), (1,), 2, 2)
    cube = A.multiply_element_by_class(s1, (1,), 2, 2)
    assert cube == E(2, 2, {((2, 1), 0): 2})
    fourth = A.multiply_element_by_class(cube, (1,), 2, 2)
    assert fourth == E(2, 2, {((2, 2), 0): 2, ((), 1): 2})


def test_gw_examples():
    assert A.gw_a((3, 2, 1), (3, 2, 1), (2, 1), 1, 3, 3) == 2
    assert A.gw_a((1,), (1,), (), 0, 1, 2) == 1
    # degree mismatch returns zero
    assert A.gw_a((1,), (1,), (1,), 0, 2, 2) == 0
    # three general points on G(2,4) lie on a unique conic-degree curve
    assert A.gw_a((2, 2), (2, 2), (2, 2), 2, 2, 2) == 1


def test_gw_vanishing_when_dth_part_small():
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


def test_gw_puzzle_route_examples():
    assert A.gw_a_puzzle((3, 2, 1), (3, 2, 1), (2, 1), 1, 3, 3) == 2
    # degree-zero strings are doubled 01-strings; counts match the classical route
    for lam, mu, nu in itertools.product(C.partitions_in_box(2, 2), repeat=3):
        if sum(lam) + sum(mu) + sum(nu) == 4:
            assert A.gw_a_puzzle(lam, mu, nu, 0, 2, 2) == A.gw_a(lam, mu, nu, 0, 2, 2)
    # both routes share one degree rule: a mismatch is 0, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert A.gw_a_puzzle((2, 1), (2, 1), (2, 2), 1, 2, 2) == 0
        assert A.gw_a((2, 1), (2, 1), (2, 2), 1, 2, 2) == 0


def test_point_square_reaches_degree_min_m_n():
    # no q-power above min(m, n) occurs: the puzzle route has no strings
    # there, so both routes must agree that those invariants vanish
    for N in (9, 10):
        for m in range(1, N):
            n = N - m
            point = (n,) * m
            degrees = {d for (_, d) in A.quantum_product_a(point, point, m, n).coeffs}
            assert max(degrees) == min(m, n), (m, n, degrees)


def test_presentation_reports():
    for m, n in [(1, 1), (2, 2), (3, 3), (2, 3), (4, 2)]:
        report = A.presentation_report_a(m, n)
        assert report.ok, report.failures
    # the reported identities pin the quantum corrections
    assert A.quantum_product_a((2,), (1, 1), 2, 2) == E(2, 2, {((), 1): 1})
    for m, n in [(0, 2), (2, 0)]:
        with pytest.raises(ValueError):
            A.presentation_report_a(m, n)


def test_dims():
    assert A.dims(2, 2, 1) == (5, 4)
    assert A.dims(3, 4, 0) == (12, 12)
    assert A.dims(3, 3, 1) == (12, 9)
    with pytest.raises(ValueError):
        A.dims(2, 2, 3)


def test_product_grading_and_duality_small():
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        N = m + n
        classes = C.partitions_in_box(m, n)
        point = (n,) * m
        for lam in classes:
            for mu in classes:
                prod = A.quantum_product_a(lam, mu, m, n)
                for (nu, d), c in prod.coeffs.items():
                    assert sum(nu) + d * N == sum(lam) + sum(mu)
                if sum(lam) + sum(mu) == m * n:
                    want = 1 if C.rect_dual(lam, m, n) == mu else 0
                    assert prod.coefficient(point, 0) == want


def test_production_product_equals_jacobi_trudi_fold():
    """The Laplace-expanded product against its oracle, the monomial fold,
    on every ordered pair of every G(m, N) with N <= 8."""
    pairs = 0
    for N in range(2, 9):
        for m in range(1, N):
            space = ring.Space(ring.A, m, N - m)
            classes = C.partitions_in_box(m, N - m)
            for lam, mu in itertools.product(classes, repeat=2):
                pairs += 1
                assert ring.PRODUCT[ring.A](space, lam, mu) == \
                    ring.giambelli_fold(space, lam, mu), (space, lam, mu)
            ring.clear_caches()
    assert pairs == 17_560


def test_pieri_table_equals_the_per_p_maps():
    """Each class's table against the per-p Pieri map, the fold's rule, for
    every p on every G(m, N) with N <= 10, the point spaces m = 0 and
    m = N included: each row's keys decode to the map's classes, with the
    degree read off the grading |lam| + p."""
    pairs = 0
    for N in range(11):
        for m in range(N + 1):
            space = ring.Space(ring.A, m, N - m)
            for lam in C.partitions_in_box(m, N - m):
                table = A._pieri_table(space, A._key(space, lam))
                assert len(table) == N - m + 1
                for p, row in enumerate(table):
                    want = A._pieri_map(space, lam, p)
                    if not N:
                        # q has degree 0 on the point G(0, 0): s[0] * s[] = s[] + q*s[]
                        # is one key twice, which the grading cannot tell apart
                        assert list(row) == [A._key(space, ())] * 2
                        assert set(want) == {((), 0), ((), 1)}
                    else:
                        got = A._decode(space, dict.fromkeys(row, 1), sum(lam) + p)
                        assert len(got) == len(row), (space, lam, p)
                        assert set(got) == set(want), (space, lam, p)
                    pairs += 1
            ring.clear_caches()
    assert pairs == 11_264


@pytest.mark.parametrize("m", [14, 16, 20])
def test_wide_keys_match_the_fold(m):
    """On G(m, 2m) a key outgrows a machine word from m = 16 on (m = 14 still
    fits).  A product with s[1] against the fold, and one of two full-length
    classes against the fold on the conjugate side, where s[1^m] is one row."""
    space = ring.Space(ring.A, m, m)
    assert (A._layout(space)[2] is tuple) == (m > 14)
    ones = (1,) * m
    assert A.quantum_product_a(ones, (1,), m, m).coeffs == ring.giambelli_fold(space, ones, (1,))
    hook = (m,) + (1,) * (m - 1)  # self-conjugate
    conjugate = ring.giambelli_fold(space, hook, (m,))
    assert A.quantum_product_a(hook, ones, m, m).coeffs == \
        {(C.conjugate(nu), d): c for (nu, d), c in conjugate.items()} == {(ones[1:], 1): 1}
    code, out = cli.run(["qprod", "--m", str(m), "--n", str(m),
                         "--lambda", ",".join("1" * m), "--mu", "1"])
    assert (code, out) == (0, f"s[2{',1' * (m - 1)}]")


def test_point_space_products():
    for N in range(5):
        for m, n in {(0, 0), (0, N), (N, 0)}:
            space = ring.Space(ring.A, m, n)
            for lam, mu in itertools.product(C.partitions_in_box(m, n), repeat=2):
                assert A.quantum_product_a(lam, mu, m, n) == E(m, n, {((), 0): 1})
                assert ring.giambelli_fold(space, lam, mu) == {((), 0): 1}


@st.composite
def _classes(draw, min_N=0):
    """(space, class) on G(m, N) with N <= 12, the point spaces m = 0 and n = 0 included."""
    N = draw(st.integers(min_N, 12))
    m = draw(st.integers(0, N))
    parts = draw(st.lists(st.integers(0, N - m), min_size=m, max_size=m))
    return ring.Space(ring.A, m, N - m), C.trim(tuple(sorted(parts, reverse=True)))


@settings(max_examples=300, deadline=None)
@given(_classes())
def test_packed_key_round_trip_and_weight(case):
    space, lam = case
    key, shift = A._key(space, lam), A._layout(space)[0]
    assert A._parts(key >> shift, space.n + 1) == lam
    assert key & ((1 << shift) - 1) == sum(lam)


def test_packed_keys_of_distinct_classes_differ():
    for N in range(13):
        for m in range(N + 1):
            space = ring.Space(ring.A, m, N - m)
            classes = C.partitions_in_box(m, N - m)
            assert len({A._key(space, lam) for lam in classes}) == len(classes)


@settings(max_examples=300, deadline=None)
@given(_classes(min_N=1), st.data())
def test_degree_from_the_grading_equals_the_pieri_map(case, data):
    # N >= 1: on G(0, 0) q has degree 0 and the grading holds no degree
    space, lam = case
    p = data.draw(st.integers(0, space.n))
    for nu, d in A._pieri_map(space, lam, p):
        assert A._decode(space, {A._key(space, nu): 1}, sum(lam) + p) == {(nu, d): 1}


def test_staircase_squares_match_the_reference():
    staircases = json.loads(REFERENCE.read_text(encoding="utf-8"))["staircases"]
    assert [m for m, _ in staircases] == list(range(2, 8))
    for m, want in staircases:
        stair = tuple(range(m, 0, -1))
        text = A.quantum_product_a(stair, stair, m, m).text()
        assert hashlib.sha256(text.encode()).hexdigest() == want


def test_commutativity_with_explicit_fold_order():
    for m, n in [(2, 2), (2, 3)]:
        classes = C.partitions_in_box(m, n)
        for lam in classes:
            for mu in classes:
                assert A.product_second_folded(lam, mu, m, n) == \
                    A.product_second_folded(mu, lam, m, n)


def test_associativity_g24_exhaustive():
    classes = C.partitions_in_box(2, 2)
    for lam, mu, nu in itertools.product(classes, repeat=3):
        left = A.multiply_element_by_class(A.quantum_product_a(lam, mu, 2, 2), nu, 2, 2)
        right = A.multiply_element_by_class(A.quantum_product_a(mu, nu, 2, 2), lam, 2, 2)
        assert left == right


def test_pieri_never_exceeds_degree_one():
    # a single Pieri step removes fewer than 2N boxes, so q appears at
    # most linearly; asserted over a full grid rather than assumed
    for m, n in [(2, 2), (2, 3), (3, 3), (1, 4)]:
        for lam in C.partitions_in_box(m, n):
            for p in range(1, n + 1):
                elem = A.quantum_pieri_a(lam, p, m, n)
                assert all(d <= 1 for (_, d) in elem.coeffs)


def test_element_text_format():
    elem = A.quantum_product_a((3, 2, 1), (2,), 3, 3)
    assert elem.text() == "s[3,3,2] + q*s[2] + q*s[1,1]"
    assert E(2, 2, {}).text() == "0"
    assert E(2, 2, {((), 1): 3}).text() == "3*q*s[]"
