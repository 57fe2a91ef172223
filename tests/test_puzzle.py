from collections import defaultdict
from itertools import permutations, product

import pytest

from qschubert import combinat as C, puzzle as P, typea as A


def test_projective_plane_golden():
    # two general lines in the projective plane meet in one point
    assert P.count_puzzles_1step("101", "101", "011") == 1


def test_projective_line_goldens():
    assert P.count_puzzles_1step("01", "01", "10") == 1
    assert P.count_puzzles_1step("10", "10", "01") == 0
    assert P.count_puzzles_1step("0", "0", "0") == 1
    assert P.count_puzzles_1step("1", "1", "1") == 1


def test_point_class_triples():
    # <1, 1, point> = 1; the fully sorted boundary has degree 0 + 0 + 0
    # and therefore no filling at all
    assert P.count_puzzles_1step("0011", "0011", "1100") == 1
    assert P.count_puzzles_1step("0011", "0011", "0011") == 0
    assert P.count_puzzles_2step("001122", "001122", "221100") == 1
    assert P.count_puzzles_2step("001122", "001122", "001122") == 0


def test_pieri_coefficient_boundary_on_g24():
    # boundary triple for the coefficient of s[2] in s[1]*s[1]
    lam = C.to_01_string((1,), 2, 2)
    dual = C.to_01_string(C.rect_dual((2,), 2, 2), 2, 2)
    assert P.count_puzzles_1step(lam, lam, dual) == 1


def test_two_step_golden_count_two():
    # degree-one invariant of (3,2,1) * (3,2,1) against (2,1) on G(3,6)
    assert P.count_puzzles_2step("102021", "102021", "010212") == 2


def test_three_step_flag_products_on_f123():
    # full flag variety of C^3: s1*s1 = s[s2 s1], s1*s2 = s[s1 s2] + s[s2 s1]
    assert P.count_puzzles_2step("102", "102", "021") == 1
    assert P.count_puzzles_2step("102", "102", "102") == 0
    assert P.count_puzzles_2step("102", "021", "102") == 1
    assert P.count_puzzles_2step("102", "021", "021") == 1


def test_input_validation():
    with pytest.raises(ValueError):
        P.count_puzzles_1step("01", "011", "01")
    with pytest.raises(ValueError):
        P.count_puzzles_1step("02", "02", "02")
    with pytest.raises(ValueError):
        P.count_puzzles_2step("012", "012", "021x")
    with pytest.raises(ValueError):
        P.count_puzzles_2step("0012", "0112", "0012")
    with pytest.raises(ValueError):
        P.count_puzzles_2step(C.LabelString("0011", C.ALPHABET_01), "0011", "0011")


def test_piece_tables_closed_under_rotation():
    # a clockwise rotation sends an upward (left, right, bottom) to
    # (bottom, left, right) and a downward (top, left, right) to
    # (left, right, top); no reflected piece may appear
    for ups, downs in [(P._UP_PATTERNS_1, P._DOWN_PATTERNS_1),
                       (P._UP_PATTERNS_2, P._DOWN_PATTERNS_2)]:
        up_set, down_set = set(ups), set(downs)
        assert len(up_set) == len(ups) and len(down_set) == len(downs)
        for left, right, bottom in up_set:
            assert (bottom, left, right) in up_set
        for top, left, right in down_set:
            assert (left, right, top) in down_set


def _all_01_strings(N):
    seen = set()
    for m in range(N + 1):
        for s in permutations("0" * m + "1" * (N - m)):
            seen.add("".join(s))
    return sorted(seen)


def _assert_rotation_invariant(count, strings):
    """Count each rotation orbit of boundary triples once, from its least
    member, and require one count on the whole orbit."""
    for a, b, c in product(strings, repeat=3):
        orbit = {(a, b, c), (b, c, a), (c, a, b)}
        if min(orbit) == (a, b, c):
            assert len({count(*t) for t in orbit}) == 1, (a, b, c)


def test_rotation_invariance_1step():
    for N in range(1, 7):
        _assert_rotation_invariant(P.count_puzzles_1step, _all_01_strings(N))


def test_rotation_invariance_2step():
    for N in (4, 5):
        by_class = defaultdict(list)
        for tup in product("012", repeat=N):
            s = "".join(tup)
            by_class[(s.count("0"), s.count("1"), s.count("2"))].append(s)
        for strings in by_class.values():
            _assert_rotation_invariant(P.count_puzzles_2step, strings)


def test_rotation_invariance_2step_sampled_larger():
    # degree-d boundary triples up to size 6, rotated
    for m, n, d in [(2, 3, 1), (3, 3, 1), (3, 3, 2), (2, 4, 2)]:
        classes = C.partitions_in_box(m, n)
        for lam in classes[::2]:
            for mu in classes[::3]:
                for nu in classes[::2]:
                    a, b, c = (str(C.jd_string(x, m, n, d)) for x in (lam, mu, nu))
                    x = P.count_puzzles_2step(a, b, c)
                    assert x == P.count_puzzles_2step(b, c, a)
                    assert x == P.count_puzzles_2step(c, a, b)


def test_degree_zero_strings_reduce_to_1step():
    # doubling every label of the three 01-strings is a pure renaming,
    # so the 2-step count over degree-zero strings matches the 1-step count
    for m, n in [(1, 2), (2, 2), (2, 3)]:
        classes = C.partitions_in_box(m, n)
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    one = [str(C.to_01_string(x, m, n)) for x in (lam, mu, nu)]
                    two = [str(C.jd_string(x, m, n, 0)) for x in (lam, mu, nu)]
                    assert P.count_puzzles_2step(*two) == P.count_puzzles_1step(*one)


def test_1step_counts_equal_classical_constants():
    # puzzle counts against the Pieri-fold route, all triples, small spaces
    for N in range(2, 6):
        for m in range(1, N):
            n = N - m
            classes = C.partitions_in_box(m, n)
            strings = {lam: C.to_01_string(lam, m, n) for lam in classes}
            for lam in classes:
                for mu in classes:
                    for nu in classes:
                        got = P.count_puzzles_1step(strings[lam], strings[mu], strings[nu])
                        assert got == A.gw_a(lam, mu, nu, 0, m, n)


def test_degree_mismatch_forces_zero():
    # codimension sums away from the space dimension leave no filling
    for N in range(2, 5):
        for m in range(1, N):
            n = N - m
            classes = C.partitions_in_box(m, n)
            strings = {lam: C.to_01_string(lam, m, n) for lam in classes}
            for lam in classes:
                for mu in classes:
                    for nu in classes:
                        if sum(lam) + sum(mu) + sum(nu) != m * n:
                            assert P.count_puzzles_1step(
                                strings[lam], strings[mu], strings[nu]) == 0


def test_degree_mismatch_forces_zero_2step():
    # same scan for two-step boundaries: codimension is the inversion
    # count of the string's permutation, the dimension (N-b)b + (b-a)a
    for N in range(2, 5):
        by_class = defaultdict(list)
        for tup in product("012", repeat=N):
            s = "".join(tup)
            by_class[(s.count("0"), s.count("1"))].append(s)
        for (z, o), strings in by_class.items():
            a, b = z, z + o
            dim = (N - b) * b + (b - a) * a
            codim = {s: C.permutation_length(C.string012_to_permutation(s, a, b))
                     for s in strings}
            for x in strings:
                for y in strings:
                    for w in strings:
                        if codim[x] + codim[y] + codim[w] != dim:
                            assert P.count_puzzles_2step(x, y, w) == 0


def test_determinism_and_cache_transparency():
    boundary = ("102021", "102021", "010212")
    first = P.count_puzzles_2step(*boundary)
    P.clear_caches()
    assert P.count_puzzles_2step(*boundary) == first
    assert P.count_puzzles_2step(*boundary) == first


def test_parallel_counts_independent_of_schedule():
    from concurrent.futures import ThreadPoolExecutor

    classes = C.partitions_in_box(2, 3)
    boundaries = [tuple(str(C.jd_string(x, 2, 3, 1)) for x in (lam, mu, nu))
                  for lam in classes for mu in classes for nu in classes[:4]]
    P.clear_caches()
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda b: P.count_puzzles_2step(*b), boundaries))
    P.clear_caches()
    assert threaded == [P.count_puzzles_2step(*b) for b in boundaries]


def test_dump_fillings_agrees_with_count():
    fillings = P.dump_fillings("101", "101", "011", kind="1step")
    assert fillings == [["111", "0x1 000", "111 111 x10"]]
    fillings = P.dump_fillings("102021", "102021", "010212", kind="2step")
    assert len(fillings) == 2
    assert fillings[0][-1] == "1c2 111 ad2 a10 111 a10"
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
        classes = C.partitions_in_box(m, n)
        ones = [C.to_01_string(lam, m, n) for lam in classes]
        for boundary in product(ones, repeat=3):
            assert len(P.dump_fillings(*boundary)) == P.count_puzzles_1step(*boundary)
        for d in range(1, min(m, n) + 1):
            twos = [C.jd_string(lam, m, n, d) for lam in classes]
            for boundary in product(twos, repeat=3):
                assert (len(P.dump_fillings(*boundary, kind="2step"))
                        == P.count_puzzles_2step(*boundary))
    for bad in (("abc", "101", "011", "1step"), ("101", "101", "01", "1step"),
                ("012", "012", "011", "2step"), ("01", "01", "10", "3step")):
        with pytest.raises(ValueError):
            P.dump_fillings(*bad)
