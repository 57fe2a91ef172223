from itertools import product

import pytest
from hypothesis import given, strategies as st

from qschubert import combinat as C, ring, typea


partitions = st.lists(st.integers(min_value=1, max_value=7), max_size=6).map(
    lambda xs: C.partition(sorted(xs, reverse=True)))


def test_partition_canonical_form():
    assert C.partition([2, 1, 0, 0]) == (2, 1)
    assert C.partition([]) == ()
    assert C.is_strict(()) and C.is_strict((3, 1)) and not C.is_strict((2, 2))
    with pytest.raises(ValueError):
        C.partition([1, 2])
    with pytest.raises(ValueError):
        C.partition([2, -1])


def test_conjugate_examples():
    assert C.conjugate((5, 3, 2)) == (3, 3, 2, 1, 1)
    assert C.conjugate(()) == ()
    assert C.conjugate((1, 1, 1)) == (3,)


@given(partitions)
def test_conjugate_involution(lam):
    assert C.conjugate(C.conjugate(lam)) == lam


def test_rect_dual_examples():
    assert C.rect_dual((2, 1), 3, 3) == (3, 2, 1)
    assert C.rect_dual((2, 2), 2, 2) == ()
    assert C.rect_dual((1,), 2, 2) == (2, 1)
    with pytest.raises(ValueError):
        C.rect_dual((3,), 2, 2)


def test_strict_dual_examples():
    assert C.strict_dual((4, 2, 1), 5) == (5, 3)
    assert C.strict_dual((), 3) == (3, 2, 1)
    assert C.strict_dual((2,), 2) == (1,)
    with pytest.raises(ValueError):
        C.strict_dual((2, 2), 3)
    with pytest.raises(ValueError):
        C.strict_dual((4,), 3)


def test_remove_columns():
    assert C.remove_columns((3, 2, 1), 1) == (2, 1)
    assert C.remove_columns((3, 2, 1), 3) == ()
    assert C.remove_columns((4, 4, 3, 1), 2) == (2, 2, 1)


def test_remove_columns_refuses_a_negative_count():
    with pytest.raises(ValueError):
        C.remove_columns((2, 1), -1)
    assert C.remove_columns((2, 1), 0) == (2, 1)


@pytest.mark.parametrize("call", [
    lambda: C.strict_dual((1, 2), 3),
    lambda: C.hat_map((2, 2), 3),
    lambda: ring.Space.of(ring.LG, None, 2).check((3,)),
    lambda: ring.Space.of(ring.OG, None, 3).check((2, 2)),
], ids=["strict_dual", "hat_map", "LG-check", "OG-check"])
def test_strict_classes_have_one_check(call):
    with pytest.raises(ValueError, match="is not a strict partition bounded by"):
        call()


def test_string_degrees_must_be_ints():
    for call in (lambda d: C.jd_string((1,), 2, 2, d), lambda d: typea.dims(2, 2, d)):
        for d in (True, 1.0, -1, 3):
            with pytest.raises(ValueError, match="out of range for a 2x2 rectangle"):
                call(d)
    assert C.jd_string((1,), 2, 2, 1).symbols == "0112"


def test_01_string_examples():
    assert C.to_01_string((4, 4, 3, 1), 4, 5).symbols == "101101001"
    assert C.to_01_string((), 2, 2).symbols == "0011"
    assert C.to_01_string((1,), 2, 2).symbols == "0101"
    with pytest.raises(ValueError):
        C.to_01_string((3,), 2, 2)


def test_from_01_string():
    assert C.from_01_string("101101001") == ((4, 4, 3, 1), 4, 5)
    with pytest.raises(ValueError):
        C.from_01_string("0011", m=1)
    with pytest.raises(ValueError):
        C.from_01_string("0021")


def test_grassmann_permutation_examples():
    assert C.grassmann_permutation((4, 4, 3, 1), 4, 5) == (2, 5, 7, 8, 1, 3, 4, 6, 9)
    assert C.grassmann_permutation((), 2, 3) == (1, 2, 3, 4, 5)
    assert C.grassmann_permutation((2, 2), 2, 2) == (3, 4, 1, 2)


def test_jd_string_examples():
    assert C.jd_string((4, 4, 3, 1), 4, 5, 2).symbols == "101202112"
    assert C.jd_string((1,), 2, 2, 0).symbols == "0202"
    assert C.jd_string((3, 2, 1), 3, 3, 1).symbols == "102021"
    assert C.jd_string((2, 1), 3, 3, 1).symbols == "010212"
    with pytest.raises(ValueError):
        C.jd_string((1,), 2, 2, 3)


def test_string012_to_permutation():
    w = C.string012_to_permutation("101202112", 2, 6)
    assert w == (2, 5, 1, 3, 7, 8, 4, 6, 9)
    assert C.permutation_length(w) == 12 - 4
    assert C.string012_to_permutation("001122", 2, 4) == (1, 2, 3, 4, 5, 6)
    w = C.string012_to_permutation("010212", 2, 4)
    assert C.permutation_length(w) == 3 - 1
    with pytest.raises(ValueError):
        C.string012_to_permutation("010212", 3, 4)


def test_skew_component_stats_examples():
    assert C.skew_component_stats((1,), (2,)) == (1, 1)
    assert C.skew_component_stats((1,), (1, 1)) == (1, 0)
    # diagonal contact merges components
    assert C.skew_component_stats((1,), (2, 1)) == (1, 0)
    with pytest.raises(ValueError):
        C.skew_component_stats((2,), (1,))


def _cells(lam, mu):
    padded = lam + (0,) * (len(mu) - len(lam))
    return {(i + 1, j + 1) for i in range(len(mu)) for j in range(padded[i], mu[i])}


_AROUND = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]


def _flood_fill(cells):
    # the reference count: components under edge-or-vertex adjacency, and
    # how many of them avoid column 1
    todo = set(cells)
    comps = off_first = 0
    while todo:
        comps += 1
        stack = [todo.pop()]
        meets_first = False
        while stack:
            i, j = stack.pop()
            meets_first |= j == 1
            for di, dj in _AROUND:
                cell = (i + di, j + dj)
                if cell in todo:
                    todo.remove(cell)
                    stack.append(cell)
        off_first += not meets_first
    return comps, off_first


def test_skew_components_rotation_symmetric():
    shapes = [((1,), (3, 2)), ((2, 1), (4, 3, 1)), ((3, 1), (4, 4, 2, 1)),
              ((), (2, 2)), ((2, 2), (4, 2, 2, 2))]
    for lam, mu in shapes:
        cells = _cells(lam, mu)
        rotated = {(len(mu) + 1 - i, mu[0] + 1 - j) for i, j in cells}
        assert C.skew_component_stats(lam, mu)[0] == _flood_fill(rotated)[0]


def test_skew_components_equal_the_flood_fill_in_the_box():
    box = C.partitions_in_box(5, 5)
    pairs = [(lam, mu) for lam in box for mu in box if C.contains(lam, mu)]
    assert len(pairs) == 19404
    for lam, mu in pairs:
        assert C.skew_component_stats(lam, mu) == _flood_fill(_cells(lam, mu)), (lam, mu)


def test_skew_components_equal_the_flood_fill_on_strict_strips():
    # the strips the LG and OG Pieri rules add and remove, with parts <= 8
    strips = [(lam, mu) for lam in C.strict_partitions_max(8) for p in range(1, 9)
              for mu in C.horizontal_strip_additions(lam, p, max_part=8)]
    strips += [(nu, lam) for lam in C.strict_partitions_max(8) for p in range(1, 9)
               for nu in C.horizontal_strip_removals(lam, p)]
    assert len(strips) == 37536
    for lam, mu in strips:
        assert C.skew_component_stats(lam, mu) == _flood_fill(_cells(lam, mu)), (lam, mu)


def test_hat_map_examples():
    assert C.hat_map((2, 1), 3) == (2, 1)
    assert C.hat_map((4,), 4) == ()
    assert C.hat_map((3, 1), 4) == (3, 1)
    with pytest.raises(ValueError):
        C.hat_map((2, 2), 3)
    with pytest.raises(ValueError):
        C.hat_map((), 3)


def test_involutions_exhaustive_small_grids():
    for N in range(2, 11):
        for m in range(1, N):
            n = N - m
            for lam in C.partitions_in_box(m, n):
                assert C.rect_dual(C.rect_dual(lam, m, n), m, n) == lam
                w = C.grassmann_permutation(lam, m, n)
                assert C.permutation_length(w) == sum(lam)
                assert C.from_01_string(C.to_01_string(lam, m, n)) == (lam, m, n)
    for n in range(1, 7):
        for nu in C.strict_partitions_max(n):
            assert C.strict_dual(C.strict_dual(nu, n), n) == nu


@given(partitions, st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
def test_01_round_trip_random(lam, m, n):
    if not C.fits_in_box(lam, m, n):
        return
    assert C.from_01_string(C.to_01_string(lam, m, n)) == (lam, m, n)


def test_jd_codimension_identity():
    # the permutation of the degree-d string has length |lam| - d^2
    # exactly when the d-th part is at least d, and larger length otherwise
    for N in range(2, 9):
        for m in range(1, N):
            n = N - m
            for d in range(1, min(m, n) + 1):
                for lam in C.partitions_in_box(m, n):
                    w = C.string012_to_permutation(C.jd_string(lam, m, n, d), m - d, m + d)
                    ell = C.permutation_length(w)
                    lam_d = lam[d - 1] if d <= len(lam) else 0
                    if lam_d >= d:
                        assert ell == sum(lam) - d * d
                    else:
                        assert ell > sum(lam) - d * d


def test_label_string_alphabet_guard():
    with pytest.raises(ValueError):
        C.LabelString("012", C.ALPHABET_01)
    with pytest.raises(ValueError):
        C.LabelString("01", "02")
    s = C.LabelString("0101", C.ALPHABET_01)
    assert len(s) == 4 and s.count("0") == 2


def test_strip_helpers():
    assert set(C.horizontal_strip_additions((2, 1), 2, max_part=3)) == {
        (3, 2), (3, 1, 1), (2, 2, 1)}
    assert set(C.horizontal_strip_additions((2, 1), 2, max_part=3, max_rows=2)) == {
        (3, 2)}
    assert set(C.horizontal_strip_removals((3, 2), 2)) == {(3,), (2, 1)}
    assert C.horizontal_strip_additions((), 0, max_part=5) == [()]


def _is_horizontal_strip(inner, outer):
    padded = inner + (0,) * (len(outer) - len(inner))
    return C.contains(inner, outer) and all(
        outer[i + 1] <= padded[i] for i in range(len(outer) - 1))


def test_strip_helpers_against_brute_force():
    box = C.partitions_in_box(4, 4)
    for lam in C.partitions_in_box(3, 3):
        for p in range(0, 5):
            added = C.horizontal_strip_additions(lam, p, max_part=4)
            assert len(added) == len(set(added))
            assert set(added) == {mu for mu in box if sum(mu) == sum(lam) + p
                                  and _is_horizontal_strip(lam, mu)}
            removed = C.horizontal_strip_removals(lam, p)
            assert len(removed) == len(set(removed))
            assert set(removed) == {nu for nu in box if sum(nu) == sum(lam) - p
                                    and _is_horizontal_strip(nu, lam)}


def _by_weight(parts):
    return sorted(parts, key=lambda p: (sum(p), p))


def test_class_lists_equal_a_brute_force_filter():
    for m in range(6):
        for n in range(6):
            box = {C.trim(p) for p in product(range(n + 1), repeat=m)
                   if all(a >= b for a, b in zip(p, p[1:]))}
            assert C.partitions_in_box(m, n) == _by_weight(box)
    for n in range(8):
        # a strict partition with parts at most n is the set of its parts
        strict = [tuple(k for k, part in zip(range(n, 0, -1), bits) if part)
                  for bits in product((False, True), repeat=n)]
        assert C.strict_partitions_max(n) == _by_weight(strict)
