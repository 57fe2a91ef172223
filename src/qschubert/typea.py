"""Classical and quantum cohomology of the type A Grassmannian G(m, N).

Schubert classes are indexed by partitions inside the m x n rectangle,
n = N - m.  A product expands one factor as a Schur (Jacobi-Trudi)
determinant in the special (one-row) classes and multiplies the other
through it by the quantum Pieri rule, which is exact integer work:

* multiplying by a special class adds p boxes, no two per column
  (classical part), and contributes q-terms obtained by removing
  N - p boxes from the rim of the diagram, at least one from every one
  of the m rows (so q-terms need a full-length partition);
* a quantum product therefore carries keys (nu, d) graded by
  |nu| + d*N = |lam| + |mu|.

Gromov-Witten invariants of degree d are coefficient extractions from
these products, and can independently be counted as 2-step puzzles over
the degree-d boundary strings.

Multiplying by s[n] turns the 01-word of a class one place, with q where
a 0 wraps round, and s[n]^N = q^n: s[n] is a unit once q is inverted, so
s[lam] * s[mu] = q^e * s[lam'] * s[mu'] for every pair (lam', mu') =
(s[n]^a lam, s[n]^-a mu) of the rotation orbit (Agnihotri-Woodward,
Postnikov).

This module holds what is particular to G(m, N): the quantum Pieri rule,
the production product (the pair of the rotation orbit whose expanded
factor is cheapest, its determinant Laplace-expanded row by row, one
memo entry per unordered pair, reading one Pieri table per class, one
array holding s[lam] * s[p] for every p, row after row), its oracle (the
determinant's monomials folded one by one by ``ring.giambelli_fold``
through the per-p Pieri map, which is built apart from the tables), the
puzzle route and the presentation.  The element class, the fold and the
checked product and invariant, which each public function here calls, are
in :mod:`qschubert.ring`.

Inside the production product a class is one integer key: its 01-word
(part lam_i of row i = 0..m-1 sets bit lam_i + m-1-i, the zero rows the
trailing ones) above a low field holding |lam|, so adding the keys of its
rows builds a class and its weight at once, and s[n] turns the word.  A
key has no degree field: every term of one Laplace state has the same
graded weight |nu| + d*N, so its class fixes its degree, which is read
off only where the product returns partitions.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from itertools import accumulate, chain, product
from typing import NamedTuple

from . import ring
from .combinat import (Partition, horizontal_strip_additions,
                       horizontal_strip_removals, string_degree, trim, word_jd)
from .combinat import partition  # noqa: F401  (the benchmark self-test reads it)
from .ring import A, Element, Report, Space


def QHElement(m: int, n: int, coeffs=None) -> Element:
    """Integer combination of q^d * s[nu] in the quantum ring of G(m, N)."""
    return Element(Space.of(A, m, n), coeffs)


class SpecialMonomial(NamedTuple):
    sign: int
    factors: tuple[int, ...]


@lru_cache(maxsize=None)
def _pieri_map(space: Space, lam: Partition, p: int):
    m, n = space.m, space.n
    terms = {(mu, 0): 1 for mu in horizontal_strip_additions(lam, p, max_part=n, max_rows=m)}
    if len(lam) == m:
        # remove m + n - p boxes from the rim, at least one from every row:
        # the first column, then a horizontal strip of n - p boxes
        for nu in horizontal_strip_removals(trim(tuple(x - 1 for x in lam)), n - p):
            terms[(nu, 1)] = 1
    return terms


@lru_cache(maxsize=None)
def _layout(space: Space):
    """The packed key of a class of G(m, N): its 01-word, part lam_i of row
    i = 0..m-1 setting bit lam_i + m-1-i, above a low field of ``shift`` bits
    that holds |lam|.  Those bits differ row by row, so adding the keys of
    the m rows, ``digits[i][lam_i]`` = (1 << lam_i + m-1-i) << shift | lam_i,
    builds both fields.  A Pieri table is one array of 8-byte words while
    keys fit, and a tuple past that."""
    m, n = space.m, space.n
    shift = (m * n).bit_length()
    return shift, tuple(tuple((1 << x + m - 1 - i) << shift | x for x in range(n + 1))
                        for i in range(m)), partial(array, "q") if m + n + shift <= 63 else tuple


def _key(space: Space, lam: Partition) -> int:
    return sum(map(tuple.__getitem__, _layout(space)[1], lam + (0,) * (space.m - len(lam))))


@lru_cache(maxsize=None)
def _partition(m: int, word: int) -> Partition:
    """The class of a 01-word, key >> shift: the i-th 1 from the top, at bit
    b, is the part b - m + i; the zero parts are the trailing ones.  Memoised
    because every product decodes its result's classes."""
    parts = []
    while word & word + 1:
        top = word.bit_length() - 1
        parts.append(top - m + 1 + len(parts))
        word ^= 1 << top
    return tuple(parts)


def _decode(space: Space, elem: dict, weight: int) -> dict:
    """{(nu, d): c} of {key: c}, a product of graded weight |nu| + d * N; on
    G(0, 0), where N = 0, products expand no rows and stay in degree 0."""
    shift, m, N = _layout(space)[0], space.m, space.m + space.n
    mask = (1 << shift) - 1
    return {(_partition(m, key >> shift), (weight - (key & mask)) // N if N else 0): c
            for key, c in elem.items()}


@lru_cache(maxsize=None)
def _pieri_table(space: Space, key: int):
    """s[lam] * s[p] for every p = 0..n as one row of keys per p, lam given by
    its key, every coefficient 1: one pass over the horizontal strips added
    inside the box and, for a full-length lam, one over the strips removed
    from lam minus its first column.  A key's low field gives its p, and its
    degree is left to the grading: |nu| = |lam| + p - d * N.

    The table is one sequence of the layout's type: n + 2 row ends, then
    the keys of rows 0..n in order, so that row p (:func:`_row`) is
    ``table[table[p]:table[p + 1]]``.  One array per class, not one per
    row, keeps the largest memo small."""
    m, n = space.m, space.n
    shift, digits, sequence = _layout(space)
    mask = (1 << shift) - 1
    base, lam = key & mask, _partition(m, key >> shift)
    lam += (0,) * (m - len(lam))
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    for kappa in map(sum, product(*(d[lo:hi + 1] for d, lo, hi in zip(digits, lam, (n,) + lam)))):
        rows[(kappa & mask) - base].append(kappa)
    if not m or lam[-1]:
        # remove m + n - p boxes from the rim, at least one from every row:
        # the first column, then a horizontal strip of n - p boxes
        for kappa in map(sum, product(*(d[lo - 1:hi] for d, lo, hi
                                        in zip(digits, lam[1:] + (1,), lam)))):
            rows[(kappa & mask) - base + m + n].append(kappa)
    return sequence([*accumulate(map(len, rows), initial=n + 2), *chain.from_iterable(rows)])


def _row(table, p: int):
    """Row p of a Pieri table: the keys of s[lam] * s[p]."""
    return table[table[p]:table[p + 1]]


def quantum_pieri_a(lam, p: int, m: int, n: int) -> Element:
    """Quantum product of a Schubert class with the special class s[p]."""
    return ring.quantum_pieri(Space.of(A, m, n), lam, p)


def _det_factor_entries(rows: tuple[int, ...], n: int):
    """Signed special-class monomials of det(s[rows_i + j - i]), entries
    outside 0..n treated as zero, s[0] dropped from the factor list.

    The permutations are searched depth first in lexicographic order, so
    the monomials come in the order of ``itertools.permutations``.  A
    partial permutation is cut as soon as an entry leaves 0..n or its free
    columns, in order, no longer fit the remaining rows in order (row i
    takes columns i - rows_i .. i - rows_i + n, and both ends grow with i),
    so every branch kept ends in a monomial.
    """
    k = len(rows)
    low = [i - row for i, row in enumerate(rows)]
    entries: list[int] = []

    def extend(i: int, free: tuple[int, ...], sign: int):
        if i == k:
            yield sign, tuple(sorted((e for e in entries if e), reverse=True))
            return
        for pos, j in enumerate(free):
            rest = free[:pos] + free[pos + 1:]
            if 0 <= j - low[i] <= n and all(0 <= c - lo <= n for c, lo in zip(rest, low[i + 1:])):
                entries.append(j - low[i])
                # j is the pos-th smallest free column: pos inversions with rows below
                yield from extend(i + 1, rest, -sign if pos & 1 else sign)
                entries.pop()

    return extend(0, tuple(range(k)), 1)


@lru_cache(maxsize=None)
def _det_terms(rows: tuple[int, ...], n: int):
    """The Schur determinant as Giambelli terms {(0, factors): coeff}."""
    acc: dict[tuple[int, tuple[int, ...]], int] = {}
    for sign, factors in _det_factor_entries(rows, n):
        acc[(0, factors)] = acc.get((0, factors), 0) + sign
    return {f: c for f, c in acc.items() if c != 0}


def giambelli_monomials(lam, m: int, n: int) -> list[SpecialMonomial]:
    """Signed expansion of the Schur determinant expressing s[lam]."""
    lam = Space.of(A, m, n).check(lam)
    return [SpecialMonomial(sign, factors)
            for sign, factors in _det_factor_entries(lam, n)]


@lru_cache(maxsize=None)
def _turn(space: Space, key: int, back: bool) -> tuple[int, int, int]:
    """(rows, -weight, a) of the cheapest class s[n]^a * lam, a = 0..N-1, or
    of s[n]^-a * lam if ``back``, lam given by its key (its 01-word not all
    ones): the fewest rows, then the heaviest, then the smallest a.

    s[n]^s turns the word s places down, so its rows are m less the run of
    ones from bit s up, cyclically, fewest where s starts a longest run; its
    weight gains s * n less N for each 0 that wraps round.  s[n]^-a is the
    class s[n]^(N-a), since s[n]^N = q^n."""
    m, n, shift = space.m, space.n, _layout(space)[0]
    N, word, weight = m + n, key >> shift, key & (1 << shift) - 1
    runs, length = word, 0
    while runs:  # after k rounds, the bits that start k + 1 ones in a row
        starts = runs
        runs &= runs >> 1 | (runs & 1) << N - 1
        length += 1
    best = (m + 1,)
    while starts:
        s = (starts & -starts).bit_length() - 1
        starts &= starts - 1
        best = min(best, (m - length, N * (s - (word & (1 << s) - 1).bit_count()) - weight - s * n,
                          (N - s) % N if back else s))
    return best


def _cheapest_pair(space: Space, lam: Partition, mu: Partition):
    """(lam', mu', e) with s[lam] * s[mu] = q^e * s[lam'] * s[mu'], the pair
    (s[n]^a lam, s[n]^-a mu) of the rotation orbit whose expanded factor is
    cheapest by (rows, -weight), ties to the smallest a, so a = 0 unless a
    rotation is cheaper; e is read off the grading.  A factor of at most
    one row is already cheap, and skips the search; each factor's best
    turn is memoised, one :func:`_turn` entry per class and direction, and
    a turn rotates the 01-word of the class's key."""
    if len(lam) < 2 or len(mu) < 2:
        return lam, mu, 0
    u, v = _key(space, lam), _key(space, mu)
    a = min(_turn(space, u, False), _turn(space, v, True))[2]
    if not a:
        return lam, mu, 0
    m, shift, N = space.m, _layout(space)[0], space.m + space.n
    u, v, full = u >> shift, v >> shift, (1 << N) - 1
    lam2 = _partition(m, (u >> a | u << N - a) & full)
    mu2 = _partition(m, (v << a | v >> N - a) & full)
    return lam2, mu2, (sum(lam) + sum(mu) - sum(lam2) - sum(mu2)) // N


def _product(space: Space, lam: Partition, mu: Partition) -> dict:
    """The production product of admissible classes: q^e times the product
    of the cheapest pair of the rotation orbit (:func:`_cheapest_pair`),
    which expands the factor with fewer rows, on a tie the heavier (more of
    its entries vanish).  The order is total, so both orders of the pair
    multiplied share one memo entry."""
    lam, mu, e = _cheapest_pair(space, lam, mu)
    if (len(lam), -sum(lam), lam) < (len(mu), -sum(mu), mu):
        lam, mu = mu, lam
    out = _laplace_product(space, lam, mu)
    return {(nu, d + e): c for (nu, d), c in out.items()} if e else out


@lru_cache(maxsize=None)
def _laplace_product(space: Space, lam: Partition, rows: tuple[int, ...]) -> dict:
    """s[lam] times det(s[rows_i + j - i]), Laplace-expanded row by row.

    After r rows there is one state per set of used columns, s[lam] times
    that r x r minor; equal sets merge, so k rows cost at most 2^k states,
    not k! monomials.  Entries outside 0..n are zero and s[0] is one.  Each
    state's class nu times s[p] is row p of nu's Pieri table, read by
    :func:`_row`.
    """
    n, k = space.n, len(rows)
    # row i takes columns low_i..low_i + n; both ends grow with i, so a state
    # lives only if its free columns, in order, fit the remaining rows in order
    low = [i - row for i, row in enumerate(rows)]
    states = {0: {_key(space, lam): 1}}  # bit mask of used columns -> {key: coeff}
    for i in range(k):
        grown: dict[int, dict] = {}
        for used, elem in states.items():
            moves = []  # (target state, sign, p) for each column row i can take
            for j in range(max(0, low[i]), min(k, low[i] + n + 1)):
                new = used | 1 << j
                free = [c for c in range(k) if not new >> c & 1]
                if new == used or any(not 0 <= c - lo <= n for c, lo in zip(free, low[i + 1:])):
                    continue
                sign = -1 if (used >> j).bit_count() & 1 else 1  # inversions with rows above
                moves.append((grown.setdefault(new, {}), sign, j - low[i]))
            for nu, c in elem.items():
                table = _pieri_table(space, nu)
                for target, sign, p in moves:
                    c_signed = sign * c
                    for kappa in _row(table, p):
                        target[kappa] = target.get(kappa, 0) + c_signed
        states = {new: {key: c for key, c in elem.items() if c} for new, elem in grown.items()}
    weight = sum(lam) + sum(rows)
    return _decode(space, states.get((1 << k) - 1, {}), weight)


def quantum_product_a(lam, mu, m: int, n: int) -> Element:
    """Quantum product of two Schubert classes."""
    return ring.product(Space.of(A, m, n), lam, mu)


def product_second_folded(lam, mu, m: int, n: int) -> Element:
    """Product that always folds the second factor; commuting the arguments
    exercises genuinely different computations."""
    return ring.folded_product(Space.of(A, m, n), lam, mu)


def gw_a(lam, mu, nu, d: int, m: int, n: int) -> int:
    """Three-point genus-zero invariant of degree d on G(m, m+n)."""
    return ring.invariant(Space.of(A, m, n), lam, mu, nu, d)


def gw_a_puzzle(lam, mu, nu, d: int, m: int, n: int) -> int:
    """The same invariant counted as 2-step puzzles over degree-d strings."""
    space = Space.of(A, m, n)
    if type(d) is not int:
        raise ValueError(f"degree d must be an int: d={d!r}")
    return puzzle_invariant(space, *(space.check(x) for x in (lam, mu, nu)), d)


def puzzle_invariant(space: Space, lam: Partition, mu: Partition, nu: Partition,
                     d: int) -> int:
    """:func:`gw_a_puzzle` of admissible classes."""
    from . import puzzle

    m, n = space.m, space.n
    if not space.in_degree(d, lam, mu, nu) or d > min(m, n):
        # past min(m, n) no degree-d strings exist and the invariant vanishes
        return 0
    return puzzle.count(*(word_jd(x, m, n, d) for x in (lam, mu, nu)), "2step")


def dims(m: int, n: int, d: int) -> tuple[int, int]:
    """(dimension of the degree-d kernel-span flag variety, dimension of X)."""
    space = Space.of(A, m, n)
    d = string_degree(d, m, n)
    big = space.dim + d * space.q_degree - 3 * d * d
    a, b, nn = m - d, m + d, m + n
    assert big == (nn - b) * b + (b - a) * a
    return big, space.dim


def presentation_report_a(m: int, n: int) -> Report:
    """Check the quantum ring presentation of G(m, m+n).

    The determinants D_k in the special classes vanish for
    m < k < N, D_N equals (-1)^(n+1) q, and s[n] * s[1^m] = q.
    """
    space = Space.of(A, m, n)
    N = m + n
    if not (m and n):
        raise ValueError(f"G({m},{N}) is a point; there is no presentation to check")
    failures = []
    for k in range(m + 1, N + 1):
        value = space.element(_laplace_product(space, (), (1,) * k))
        expected = space.element({} if k < N else {((), 1): (-1) ** (n + 1)})
        if value != expected:
            failures.append(f"D_{k} = {value.text()} on G({m},{N})")
    point = space.element(_product(space, (n,), (1,) * m))
    if point != space.element({((), 1): 1}):
        failures.append(f"s[{n}]*s[1^{m}] = {point.text()} on G({m},{N})")
    # n determinants and the point class
    return Report(ok=not failures, checked=n + 1, failures=failures)


clear_caches = ring.clear_caches  # the benchmark's reference builder calls it here

ring.PIERI[A] = _pieri_map
ring.GIAMBELLI[A] = lambda space, lam: _det_terms(lam, space.n)
ring.ROUTES[A] = {"pieri": _product}
ring.PRODUCT[A] = ring.ROUTES[A]["pieri"]
