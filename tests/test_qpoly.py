from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qschubert import combinat as C, qpoly as Q, ring


# --- independent monomial-level oracle -------------------------------------

def _mono_mul(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _e_k(k, n):
    out = {}
    for combo in combinations(range(n), k):
        expo = [0] * n
        for i in combo:
            expo[i] = 1
        out[tuple(expo)] = 1
    return out


def _to_monomials(f: Q.EPoly, n: int):
    total = {}
    for key, c in f.coeffs.items():
        term = {tuple([0] * n): 1}
        for part in key:
            term = _mono_mul(term, _e_k(part, n))
        for expo, v in term.items():
            total[expo] = total.get(expo, 0) + c * v
    return {k: v for k, v in total.items() if v}


# --- packed monomial keys --------------------------------------------------

def _cap(n):
    return (1 << Q._width(n)) - 1


@st.composite
def _monomials(draw, n, room, exact=False):
    """Partitions with parts at most n and weight at most ``room`` (exactly
    ``room`` when ``exact``), drawn by multiplicity from the largest part."""
    parts = []
    for k in range(n, 0, -1):
        m = room if exact and k == 1 else draw(st.integers(0, room // k))
        parts += [k] * m
        room -= m * k
    return tuple(parts)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.data())
def test_packed_key_decodes_to_its_partition(n, data):
    lam = data.draw(_monomials(n, _cap(n)))
    assert Q._partition(Q._key(lam, n), n) == lam


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.data())
def test_packed_key_order_is_partition_order_within_a_weight(n, data):
    lam = data.draw(_monomials(n, _cap(n)))
    nu = data.draw(_monomials(n, sum(lam), exact=True))
    assert (Q._key(lam, n) < Q._key(nu, n)) == (lam < nu)
    assert (Q._key(lam, n) == Q._key(nu, n)) == (lam == nu)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.data())
def test_packed_key_sum_is_the_merged_key(n, data):
    lam = data.draw(_monomials(n, _cap(n)))
    mu = data.draw(_monomials(n, _cap(n) - sum(lam)))
    merged = C.partition(sorted(lam + mu, reverse=True))
    assert Q._key(lam, n) + Q._key(mu, n) == Q._key(merged, n)
    product = Q.EPoly.monomial(n, lam) * Q.EPoly.monomial(n, mu)
    assert product.coeffs == {merged: 1}


def test_packed_key_cap_is_enforced():
    for n in range(1, 9):
        cap = _cap(n)
        assert cap >= max(31, n * (n + 1))
        ones = (1,) * cap
        assert Q.EPoly.monomial(n, ones).coeffs == {ones: 1}
        with pytest.raises(ValueError, match="cap"):
            Q.EPoly.monomial(n, ones + (1,))
        with pytest.raises(ValueError, match="cap"):
            Q.EPoly(n, {(n,) * (cap // n + 1): 1})
        # a product past the cap raises rather than carrying into the next digit
        with pytest.raises(ValueError, match="cap"):
            Q.EPoly.monomial(n, ones) * Q.EPoly.monomial(n, (1,))
        with pytest.raises(ValueError, match="cap"):
            Q.EPoly.monomial(n, (n,) * (cap // n)) * Q.EPoly.monomial(n, (n,))
        with pytest.raises(ValueError, match="cap"):
            Q.qtilde_structure(ones, (1,), n)
        with pytest.raises(ValueError, match="cap"):
            Q.qtilde_epoly(ones + (1, 1), n)
    with pytest.raises(ValueError, match="cap"):
        Q.qtilde_pfaffian_first_row((1,) * 32, 1)


# --- basic operations -------------------------------------------------------

def test_epoly_arithmetic():
    e1 = Q.EPoly.monomial(3, (1,))
    e2 = Q.EPoly.monomial(3, (2,))
    f = e1 * e1 - e2.scale(2)
    assert f.coeffs == {(1, 1): 1, (2,): -2}
    assert (f - f).is_zero()
    assert (repr(f), repr(f - f)) == ("EPoly(1*e[1, 1] + -2*e[2])", "EPoly(0)")
    with pytest.raises(ValueError):
        Q.EPoly.monomial(3, (4,))
    with pytest.raises(ValueError):
        (Q.EPoly.monomial(2, (1,)) + Q.EPoly.monomial(3, (1,)))


def test_qtilde_epoly_examples():
    assert Q.qtilde_epoly((1, 1), 3).coeffs == {(1, 1): 1, (2,): -2}
    assert Q.qtilde_epoly((2,), 4).coeffs == {(2,): 1}
    assert Q.qtilde_epoly((), 2).coeffs == {(): 1}
    # vanishing above n
    assert Q.qtilde_epoly((4, 1), 3).is_zero()
    assert Q.qtilde_epoly((3,), 2).is_zero()


def test_squared_variable_identity_against_monomial_oracle():
    for n in range(1, 6):
        for i in range(1, n + 1):
            got = _to_monomials(Q.qtilde_epoly((i, i), n), n)
            want = {tuple(2 * x for x in expo): c for expo, c in _e_k(i, n).items()}
            assert got == want, (i, n)


def test_pfaffian_expansions_agree():
    for n in range(2, 6):
        for w in range(3, 17):
            for lam in C.partitions_with_parts_at_most(w, n):
                if len(lam) >= 3:
                    assert Q.qtilde_epoly(lam, n) == Q.qtilde_pfaffian_first_row(lam, n)


def test_grouped_expansion_equals_the_loop_reference():
    # the last-entry expansion with one term per position, no runs merged;
    # n <= 5 and weight <= 20 cover every transition row of the products
    # on LG(4,8) (n = 5) and OG(5,10) (n = 4)
    @lru_cache(maxsize=None)
    def loop(lam, n):
        if lam and lam[0] > n:
            return Q.EPoly.zero(n)
        if len(lam) <= 2:
            return Q._qtilde(lam, n)
        parts = lam if len(lam) % 2 == 0 else lam + (0,)
        r = len(parts)
        total = Q.EPoly.zero(n)
        for j in range(r - 1):
            rest = parts[:j] + parts[j + 1:r - 1]
            total = total + (Q._pair_epoly(parts[j], parts[r - 1], n)
                             * loop(rest, n)).scale((-1) ** j)
        return total

    for n in range(1, 6):
        for w in range(21):
            for lam in C.partitions_with_parts_at_most(w, n + 1):
                assert Q._qtilde(lam, n) == loop(lam, n), (lam, n)


def test_factorization_property():
    for n in range(1, 5):
        pool = [lam for w in range(0, 9) for lam in C.partitions_with_parts_at_most(w, n)]
        for lam in pool:
            for i in range(1, n + 1):
                if sum(lam) + 2 * i > 12:
                    continue
                merged = C.partition(sorted(lam + (i, i), reverse=True))
                assert Q.qtilde_epoly(merged, n) == \
                    Q.qtilde_epoly(lam, n) * Q.qtilde_epoly((i, i), n)


def test_expand_examples():
    assert Q.expand_in_qtilde(Q.qtilde_epoly((3, 1), 4), 4) == {(3, 1): 1}
    e1 = Q.EPoly.monomial(3, (1,))
    assert Q.expand_in_qtilde(e1 * e1, 3) == {(2,): 2, (1, 1): 1}
    assert Q.expand_in_qtilde(Q.EPoly.zero(3), 3) == {}
    with pytest.raises(ValueError):
        Q.expand_in_qtilde(Q.EPoly(3, {(1,): 1, (1, 1): 1}), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=10),
       st.data())
def test_expand_round_trip_random(n, w, data):
    basis = C.partitions_with_parts_at_most(w, n)
    coeffs = {lam: data.draw(st.integers(min_value=-5, max_value=5)) for lam in basis}
    f = Q.EPoly.zero(n)
    for lam, c in coeffs.items():
        f = f + Q.qtilde_epoly(lam, n).scale(c)
    expansion = Q.expand_in_qtilde(f, n)
    assert expansion == {lam: c for lam, c in coeffs.items() if c}


def test_structure_examples():
    assert Q.qtilde_structure((3, 2, 1), (3, 2, 1), 4)[(4, 4, 2, 2)] == -4
    # the same constant is unchanged one variable up
    assert Q.qtilde_structure((3, 2, 1), (3, 2, 1), 5)[(4, 4, 2, 2)] == -4
    assert Q.qtilde_structure((1,), (1,), 3) == {(2,): 2, (1, 1): 1}
    assert Q.qtilde_structure((), (3, 1), 4) == {(3, 1): 1}
    with pytest.raises(ValueError):
        Q.qtilde_structure((4,), (1,), 3)


def test_ptilde_examples():
    assert Q.ptilde_structure((1,), (1,), 3) == {(2,): 1, (1, 1): 1}
    assert Q.ptilde_structure((), (2, 1), 3) == {(2, 1): 1}
    assert Q.ptilde_structure((2,), (2,), 2) == {(2, 2): 1}


def test_ptilde_integrality_across_small_grid():
    for n in range(1, 5):
        for lam in C.strict_partitions_max(n):
            for mu in C.strict_partitions_max(n):
                if sum(lam) + sum(mu) <= 10:
                    Q.ptilde_structure(lam, mu, n)


def test_pieri_examples():
    assert Q.qtilde_pieri((1,), 1, 3) == {(2,): 2, (1, 1): 1}
    for n in range(1, 5):
        for lam in C.strict_partitions_max(n):
            assert Q.qtilde_pieri(lam, n, n) == {C.partition((n,) + lam): 1}
    assert Q.qtilde_pieri((), 0, 3) == {(): 1}
    with pytest.raises(ValueError):
        Q.qtilde_pieri((2, 2), 1, 3)


def test_pieri_agrees_with_structure_constants():
    for n in range(1, 5):
        for lam in C.strict_partitions_max(n):
            for p in range(0, n + 1):
                if sum(lam) + p > 12:
                    continue
                want = Q.qtilde_structure(lam, (p,) if p else (), n)
                assert Q.qtilde_pieri(lam, p, n) == want


@pytest.mark.parametrize("make", [
    lambda: Q.EPoly(2, {(1,): 0.5}),
    lambda: Q.EPoly(2, {(1,): 1, (2,): True}),
    lambda: Q.EPoly(2, {(1,): 0.0}),
    lambda: Q.EPoly.monomial(2, (1,), 1.5),
    lambda: Q.EPoly(2.5, {(1,): 1}),
    lambda: Q.EPoly(True, {(1,): 1}),
    lambda: Q.EPoly(-1, {}),
    lambda: Q.EPoly("2"),
], ids=["c-float", "c-bool", "c-float-zero", "monomial-c-float", "n-float", "n-bool",
        "n-negative", "n-str"])
def test_epoly_refuses_sizes_and_coefficients_that_are_not_ints(make):
    with pytest.raises(ValueError, match="must be an int"):
        make()


@pytest.fixture
def fresh_caches():
    ring.clear_caches()
    yield
    ring.clear_caches()


@pytest.mark.parametrize("planted, message", [
    ({(2, 1): 2}, r"pivot at \(2, 1\) is 2, not 1"),
    ({(2, 1): 1, (1, 1, 1): -2}, r"row \(2, 1\) reaches below the diagonal at \(1, 1, 1\)"),
], ids=["non-unit-pivot", "below-the-diagonal"])
def test_basis_solve_refuses_a_broken_transition_row(fresh_caches, monkeypatch, planted, message):
    n, nu, true_qtilde = 3, (2, 1), Q._qtilde
    row = Q.EPoly(n, planted)
    monkeypatch.setattr(Q, "_qtilde", lambda lam, k: row if (lam, k) == (nu, n)
                        else true_qtilde(lam, k))
    with pytest.raises(ring.ContractViolation, match=message):
        Q.expand_in_qtilde(Q.EPoly.monomial(n, nu), n)
