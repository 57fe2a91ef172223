import random
from collections import defaultdict
from functools import lru_cache
from itertools import islice, permutations, product

import pytest

from qschubert import combinat as C, puzzle as P, ring, typea as A, verify


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


def _walk_row(ups, downs, top, left):
    """Every (bottoms, right edge) of a row under ``top``, cell by cell from
    its NW edge ``left``, trying the upward pieces in table order."""
    out = []

    def rec(j, left, bottoms):
        for up_left, right, bottom in ups:
            if up_left != left:
                continue
            if j == len(top):
                out.append((bottoms + bottom, right))
            for down_top, down_left, nxt in downs:
                if j < len(top) and (down_top, down_left) == (top[j], right):
                    rec(j + 1, nxt, bottoms + bottom)

    rec(0, left, "")
    return out


@pytest.mark.parametrize("kind, ups, downs", [
    ("1step", P._UP_PATTERNS_1, P._DOWN_PATTERNS_1),
    ("2step", P._UP_PATTERNS_2, P._DOWN_PATTERNS_2)])
def test_row_fillings_equal_a_cell_walk_of_the_pieces(kind, ups, downs):
    # every top row of width <= 3 and every (left, right) edge pair, in
    # order: dump_fillings lists fillings in the order of the rows
    labels = sorted({label for piece in ups for label in piece})
    for width in range(1, 5):
        for top in map("".join, product(labels, repeat=width - 1)):
            for left in labels:
                walked = _walk_row(ups, downs, top, left)
                for right in labels:
                    got = P._row_fillings(P._row_key(kind, P.pack(top[::-1]), width,
                                                     P._CODE[left], P._CODE[right]))
                    assert got == tuple(P.pack(b[::-1]) for b, r in walked if r == right)


_PIECES = {"1step": (P._UP_PATTERNS_1, P._DOWN_PATTERNS_1),
           "2step": (P._UP_PATTERNS_2, P._DOWN_PATTERNS_2)}
_LABEL = {code: label for label, code in P._CODE.items()}


@lru_cache(maxsize=None)
def _walked(kind, top, left):
    return _walk_row(*_PIECES[kind], top, left)


def _assert_row_equals_the_cell_walk(key):
    kind, right, left = P._KINDS[key & 1], _LABEL[key >> 1 & 15], _LABEL[key >> 5 & 15]
    width = (key >> 9).bit_length() // 4 + 1
    top = P._unpack(key >> 9, width - 1)[::-1]
    assert P._row_key(kind, P.pack(top[::-1]), width, P._CODE[left], P._CODE[right]) == key
    assert P._row_fillings(key) == tuple(P.pack(b[::-1]) for b, r in _walked(kind, top, left)
                                         if r == right)


def test_every_row_the_puzzle_suite_reads_equals_a_cell_walk(monkeypatch):
    keys, fill = set(), P._row_fillings

    def recording(key):
        keys.add(key)
        return fill(key)

    P.clear_caches()  # before the patch, so that every row recurses through it
    monkeypatch.setattr(P, "_row_fillings", recording)
    try:
        assert verify.suite_puzzle_conjecture(max_N=6).ok
    finally:
        monkeypatch.undo()
        P.clear_caches()
    assert {key & 1 for key in keys} == {0, 1}
    for key in sorted(keys):
        _assert_row_equals_the_cell_walk(key)


@pytest.mark.parametrize("kind, top", [("1step", "01" * 65), ("2step", "012" * 44)],
                         ids=["1step", "2step"])
def test_rows_past_the_recursion_bound_equal_a_cell_walk(kind, top):
    # widths 131 and 133: the first cells are filled by the loop; a row's
    # outer edges are boundary labels
    assert len(top) + 1 > P._DEPTH
    for left, right in product(P._ALPHABETS[kind], repeat=2):
        _assert_row_equals_the_cell_walk(
            P._row_key(kind, P.pack(top[::-1]), len(top) + 1, P._CODE[left], P._CODE[right]))


@pytest.mark.parametrize("piece", ["10x", "0x1", "x10"])
def test_a_missing_one_step_piece_fails_the_puzzle_suite(monkeypatch, piece):
    ups = [up for up in P._UP_PATTERNS_1 if up != tuple(piece)]
    assert len(ups) == len(P._UP_PATTERNS_1) - 1
    monkeypatch.setitem(P._TABLES, "1step", P._index(ups, P._DOWN_PATTERNS_1))
    P.clear_caches()
    try:
        report = verify.suite_puzzle_conjecture(max_N=4)
    finally:
        P.clear_caches()
    assert not report.ok
    assert all(failure.startswith("1step") for failure in report.failures)


def test_a_missing_two_step_piece_fails_the_puzzle_suite(monkeypatch):
    ups = [piece for piece in P._UP_PATTERNS_2 if piece != ("c", "0", "e")]
    assert len(ups) == len(P._UP_PATTERNS_2) - 1
    monkeypatch.setitem(P._TABLES, "2step", P._index(ups, P._DOWN_PATTERNS_2))
    P.clear_caches()
    try:
        report = verify.suite_puzzle_conjecture(max_N=5)
    finally:
        P.clear_caches()
    assert not report.ok
    assert any("2step" in failure for failure in report.failures)


def _pair_walk(nw, ne, kind):
    """The frontier after each row of one (nw, ne) pair, walked row by row
    from the apex: the per-pair reference of ``counts_by_ne``."""
    frontiers = [{0: 1}]
    for width, (left, right) in enumerate(zip(reversed(nw), ne), 1):
        new = defaultdict(int)
        for top, cnt in frontiers[-1].items():
            for row in P._row_fillings(P._row_key(kind, top, width, P._CODE[left], P._CODE[right])):
                new[row] += cnt
        frontiers.append(dict(new))
    return frontiers


def _space_words(max_N):
    """(kind, words) for the 01-words and every degree-d word of each G(m, N)."""
    for N in range(1, max_N + 1):
        for m in range(N + 1):
            n = N - m
            classes = C.partitions_in_box(m, n)
            yield "1step", [C.word_01(lam, m, n) for lam in classes]
            for d in range(min(m, n) + 1):
                yield "2step", [C.word_jd(lam, m, n, d) for lam in classes]


def test_the_walker_equals_a_walk_per_pair_on_every_space():
    pairs = 0
    for kind, words in _space_words(6):
        for nw in words:
            counts = P.counts_by_ne(nw, words, kind)
            assert set(counts) == set(words)
            for ne in words:
                want = _pair_walk(nw, ne, kind)[-1]
                assert counts[ne] == want, (kind, nw, ne)
                assert P.counts_by_ne(nw, [ne], kind)[ne] == want, (kind, nw, ne)
                pairs += 1
    assert pairs == 5296


@pytest.mark.parametrize("kind, alphabet, N", [("1step", "01", 5), ("2step", "012", 4)])
def test_the_walker_takes_unsorted_repeated_and_dying_ne_words(kind, alphabet, N):
    # every word of length N as NE, reversed and with repeats: most sides do
    # not match, so many walks die before the last row
    words = ["".join(t) for t in product(alphabet, repeat=N)]
    nes = words[::-1] + words[::3]
    died = 0
    for nw in words[::7]:
        counts = P.counts_by_ne(nw, nes, kind)
        assert set(counts) == set(words)
        for ne in words:
            frontiers = _pair_walk(nw, ne, kind)
            died += not all(frontiers[:-1])
            assert counts[ne] == frontiers[-1], (nw, ne)
    assert died > 0
    assert P.counts_by_ne(words[0], [], kind) == {}


def _suite_rows(max_N):
    """The puzzle suite's checks in its order, as (space, kind, d, triple):
    (N, m), the 1-step block, then the 2-step block by (d, lam, mu, nu)."""
    for N in range(2, max_N + 1):
        for m in range(1, N):
            n = N - m
            space = ring.Space(ring.A, m, n)
            classes = C.partitions_in_box(m, n)
            for triple in product(classes, repeat=3):
                yield space, "1step", 0, triple
            for d in range(min(m, n) + 1):
                for triple in product(classes, repeat=3):
                    if space.in_degree(d, *triple):
                        yield space, "2step", d, triple


def _suite_failures(max_N):
    """The puzzle suite's failure messages in its order, each triple read
    off its own pair walk."""
    for space, kind, d, (lam, mu, nu) in _suite_rows(max_N):
        m, n = space.m, space.n
        if kind == "1step":
            a, b, c = (C.word_01(x, m, n) for x in (lam, mu, nu))
        else:
            a, b, c = (C.word_jd(x, m, n, d) for x in (lam, mu, nu))
        got = _pair_walk(a, b, kind)[-1].get(P.pack(c), 0)
        want = ring.PRODUCT[ring.A](space, lam, mu).get((space.dual(nu), d), 0)
        if got != want:
            yield f"{kind} {space.label} d={d} {lam},{mu},{nu}: puzzle {got} != {want}"


def test_a_planted_fault_fails_in_the_order_of_the_triples(monkeypatch):
    # one coefficient off in every product s[lam] * s[mu], mu nonempty, on
    # G(2,4): its first five failures come from lam = () and five mus in
    # class order, which is not the order of their sorted 01-words
    exact, faulty = ring.PRODUCT[ring.A], ring.Space(ring.A, 2, 2)

    def mutated(space, lam, mu):
        coeffs = exact(space, lam, mu)
        if space == faulty and mu:
            key = next(iter(coeffs))
            coeffs = {**coeffs, key: coeffs[key] + 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, ring.A, mutated)
    report = verify.suite_puzzle_conjecture(max_N=4)
    want = list(islice(_suite_failures(4), 5))
    assert not report.ok and report.failures == want
    mus = [(1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert mus != sorted(mus, key=lambda mu: C.word_01(mu, 2, 2))
    for failure, mu in zip(want, mus):
        assert failure.startswith(f"1step G(2,4) d=0 (),{mu},")


def test_a_product_term_of_the_wrong_weight_fails_its_zero_checks(monkeypatch):
    # every product s[()] * s[mu], mu nonempty, on G(2,4) also holds q^0 s[()],
    # of weight 0 where |mu| is due: only the 1-step checks of nu = (2,2),
    # whose puzzle counts are 0, read it
    exact, faulty = ring.PRODUCT[ring.A], ring.Space(ring.A, 2, 2)

    def planted(space, lam, mu):
        coeffs = exact(space, lam, mu)
        if space == faulty and not lam and mu:
            coeffs = {**coeffs, ((), 0): 1}
        return coeffs

    monkeypatch.setitem(ring.PRODUCT, ring.A, planted)
    P.clear_caches()
    try:
        report = verify.suite_puzzle_conjecture(max_N=4)
        want = list(islice(_suite_failures(4), 5))
    finally:
        P.clear_caches()
    assert report.checked == sum(1 for _ in _suite_rows(4))
    assert not report.ok and report.failures == want
    mus = [(1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert want == [f"1step G(2,4) d=0 (),{mu},(2, 2): puzzle 0 != 1" for mu in mus]


def test_a_puzzle_count_of_the_wrong_weight_fails_its_zero_check(monkeypatch):
    # the 1-step walk from s[1]'s word on G(2,4) also finds one puzzle with
    # NE and south side s[1]'s word: 1 + 1 + 1 boxes where 4 are due
    walk, word = P.counts_by_ne, C.word_01((1,), 2, 2)

    def planted(nw, nes, kind):
        counts = walk(nw, nes, kind)
        if kind == "1step" and nw == word:
            counts[word] = {**counts[word], P.pack(word): 1}
        return counts

    monkeypatch.setattr(P, "counts_by_ne", planted)
    P.clear_caches()
    try:
        report = verify.suite_puzzle_conjecture(max_N=4)
    finally:
        P.clear_caches()
    assert report.checked == sum(1 for _ in _suite_rows(4))
    assert not report.ok
    assert report.failures == ["1step G(2,4) d=0 (1,),(1,),(1,): puzzle 1 != 0"]


def _all_01_strings(N):
    seen = set()
    for m in range(N + 1):
        for s in permutations("0" * m + "1" * (N - m)):
            seen.add("".join(s))
    return sorted(seen)


def _assert_rotation_invariant(kind, strings, count, seed):
    """Count each rotation orbit of boundary triples once, from its least
    member, and require one count on the whole orbit.

    Counts are read off one south-word map per ordered (nw, ne) pair; on a
    seeded sample of triples the public ``count`` must equal the map read.
    """
    maps = {(a, b): P.south_counts(a, b, kind) for a in strings for b in strings}
    for a, b, c in product(strings, repeat=3):
        orbit = {(a, b, c), (b, c, a), (c, a, b)}
        if min(orbit) == (a, b, c):
            assert len({maps[x, y].get(z, 0) for x, y, z in orbit}) == 1, (a, b, c)
    rng = random.Random(seed)
    for _ in range(200):
        a, b, c = (rng.choice(strings) for _ in range(3))
        assert count(a, b, c) == maps[a, b].get(c, 0), (a, b, c)


def test_rotation_invariance_1step():
    for N in range(1, 7):
        _assert_rotation_invariant("1step", _all_01_strings(N),
                                   P.count_puzzles_1step, seed=N)


def test_rotation_invariance_2step():
    for N in (4, 5):
        by_class = defaultdict(list)
        for tup in product("012", repeat=N):
            s = "".join(tup)
            by_class[(s.count("0"), s.count("1"), s.count("2"))].append(s)
        for i, strings in enumerate(by_class.values()):
            _assert_rotation_invariant("2step", strings, P.count_puzzles_2step,
                                       seed=100 * N + i)


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


@pytest.mark.parametrize("kind, alphabet, max_N", [("1step", "01", 5), ("2step", "012", 3)])
def test_south_counts_hold_the_counts_of_every_south_word(kind, alphabet, max_N):
    # every NW/NE pair of small boundaries: the map holds no zero and no
    # glue label, keeps the NW side's symbol multiplicities, and agrees with
    # a filling-by-filling walk on every south word
    for N in range(1, max_N + 1):
        words = ["".join(t) for t in product(alphabet, repeat=N)]
        for nw, ne in product(words, repeat=2):
            counts = P.south_counts(nw, ne, kind)
            assert all(counts.values())
            assert all(sorted(s) == sorted(nw) for s in counts)
            if N <= 3:
                for s in words:
                    if sorted(s) == sorted(nw) == sorted(ne):
                        assert len(P.dump_fillings(nw, ne, s, kind)) == counts.get(s, 0)


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
