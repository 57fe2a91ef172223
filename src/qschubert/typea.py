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

This module holds what is particular to G(m, N): the quantum Pieri rule,
the production product (the determinant Laplace-expanded row by row, one
memo entry per unordered pair, reading one Pieri table per class that
holds s[lam] * s[p] for every p), its oracle (the determinant's monomials folded one by one by
``ring.giambelli_fold`` through the per-p Pieri map, which is built apart
from the tables), the puzzle route and the presentation.  The element
class, the fold and the invariant are shared with LG and OG in
:mod:`qschubert.ring`.

Inside the production product a class is one integer key: its parts are
mixed-radix digits above a low field holding |lam|, so adding the keys of
its rows builds a class and its weight at once.  A key has no degree
field: every term of one Laplace state has the same graded weight
|nu| + d*N, so its class fixes its degree, which is read off only where
the product returns partitions.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import permutations, product
from typing import NamedTuple

from . import puzzle, ring
from .combinat import (Partition, horizontal_strip_additions,
                       horizontal_strip_removals, trim, word_jd)
from .combinat import partition  # noqa: F401  (the benchmark self-test reads it)
from .ring import A, QHElement, Space, giambelli_fold


@dataclass
class Report:
    """Outcome of a batch of identity checks."""

    ok: bool
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)


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
    """The packed key of a class of G(m, N): part lam_i is the digit
    lam_i * (n+1)^i above a low field of ``shift`` bits that holds |lam|, so
    adding the keys of the rows, ``digits[i][lam_i]`` = lam_i * ((n+1)^i <<
    shift | 1), adds both fields.  Table rows are 8-byte words while keys fit."""
    m, n = space.m, space.n
    shift = (m * n).bit_length()
    fits = (n + 1) ** m << shift <= 1 << 63  # every key is below (n+1)^m << shift
    return shift, tuple(tuple(x * ((n + 1) ** i << shift | 1) for x in range(n + 1))
                        for i in range(m)), partial(array, "q") if fits else tuple


def _key(space: Space, lam: Partition) -> int:
    return sum(map(tuple.__getitem__, _layout(space)[1], lam))


@lru_cache(maxsize=None)
def _parts(digits: int, radix: int) -> Partition:
    """The partition of a key's digits, key >> shift, in base n + 1, memoised
    because every product decodes its result's classes; parts are weakly
    decreasing, so the digits end at the first zero part."""
    parts = []
    while digits:
        digits, x = divmod(digits, radix)
        parts.append(x)
    return tuple(parts)


def _decode(space: Space, elem: dict, weight: int) -> dict:
    """{(nu, d): c} of {key: c}, a product of graded weight |nu| + d * N; on
    G(0, 0), where N = 0, products expand no rows and stay in degree 0."""
    shift, radix, N = _layout(space)[0], space.n + 1, space.m + space.n
    mask = (1 << shift) - 1
    return {(_parts(key >> shift, radix), (weight - (key & mask)) // N if N else 0): c
            for key, c in elem.items()}


@lru_cache(maxsize=None)
def _pieri_table(space: Space, key: int):
    """s[lam] * s[p] for every p = 0..n as one row of keys per p, lam given by
    its key, every coefficient 1: one pass over the horizontal strips added
    inside the box and, for a full-length lam, one over the strips removed
    from lam minus its first column.  A key's low field gives its p, and its
    degree is left to the grading: |nu| = |lam| + p - d * N."""
    m, n = space.m, space.n
    shift, digits, row = _layout(space)
    mask = (1 << shift) - 1
    base, lam = key & mask, _parts(key >> shift, n + 1)
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
    return tuple(map(row, rows))


def quantum_pieri_a(lam, p: int, m: int, n: int) -> QHElement:
    """Quantum product of a Schubert class with the special class s[p]."""
    return ring.quantum_pieri(Space.of(A, m, n), lam, p)


def _det_factor_entries(rows: tuple[int, ...], n: int):
    """Signed special-class monomials of det(s[rows_i + j - i]), entries
    outside 0..n treated as zero, s[0] dropped from the factor list."""
    k = len(rows)
    for perm in permutations(range(k)):
        entries = [rows[i] + perm[i] - i for i in range(k)]
        if all(0 <= e <= n for e in entries):
            inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
            yield (-1) ** inv, tuple(sorted((e for e in entries if e), reverse=True))


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


def _product(space: Space, lam: Partition, mu: Partition) -> dict:
    """The production product of admissible classes: expand the factor with
    fewer rows, on a tie the heavier (more of its entries vanish).  The
    order is total, so both orders of a pair share one memo entry."""
    if (len(lam), -sum(lam), lam) < (len(mu), -sum(mu), mu):
        lam, mu = mu, lam
    return _laplace_product(space, lam, mu)


@lru_cache(maxsize=None)
def _laplace_product(space: Space, lam: Partition, rows: tuple[int, ...]) -> dict:
    """s[lam] times det(s[rows_i + j - i]), Laplace-expanded row by row.

    After r rows there is one state per set of used columns, s[lam] times
    that r x r minor; equal sets merge, so k rows cost at most 2^k states,
    not k! monomials.  Entries outside 0..n are zero and s[0] is one.
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
                    for kappa in table[p]:
                        target[kappa] = target.get(kappa, 0) + c_signed
        states = {new: {key: c for key, c in elem.items() if c} for new, elem in grown.items()}
    weight = sum(lam) + sum(rows)
    return _decode(space, states.get((1 << k) - 1, {}), weight)


def quantum_product_a(lam, mu, m: int, n: int) -> QHElement:
    """Quantum product of two Schubert classes."""
    space = Space.of(A, m, n)
    return space.element(_product(space, space.check(lam), space.check(mu)))


def product_second_folded(lam, mu, m: int, n: int) -> QHElement:
    """Product that always folds the second factor; commuting the arguments
    exercises genuinely different computations."""
    return ring.folded_product(Space.of(A, m, n), lam, mu)


def multiply_element_by_class(elem: QHElement, kappa, m: int, n: int) -> QHElement:
    space = Space.of(A, m, n)
    kappa = space.check(kappa)
    terms = {(d, nu): c for (nu, d), c in elem.coeffs.items()}
    return space.element(ring.combine(terms, lambda nu: giambelli_fold(space, nu, kappa)))


def gw_a(lam, mu, nu, d: int, m: int, n: int) -> int:
    """Three-point genus-zero invariant of degree d on G(m, m+n)."""
    space = Space.of(A, m, n)
    return ring.gw(space, *(space.check(x) for x in (lam, mu, nu)), d)


def gw_a_puzzle(lam, mu, nu, d: int, m: int, n: int) -> int:
    """The same invariant counted as 2-step puzzles over degree-d strings."""
    space = Space.of(A, m, n)
    return puzzle_invariant(space, *(space.check(x) for x in (lam, mu, nu)), d)


def puzzle_invariant(space: Space, lam: Partition, mu: Partition, nu: Partition,
                     d: int) -> int:
    """:func:`gw_a_puzzle` of admissible classes."""
    m, n = space.m, space.n
    if not space.in_degree(d, lam, mu, nu) or d > min(m, n):
        # past min(m, n) no degree-d strings exist and the invariant vanishes
        return 0
    return puzzle.count(*(word_jd(x, m, n, d) for x in (lam, mu, nu)), "2step")


def dims(m: int, n: int, d: int) -> tuple[int, int]:
    """(dimension of the degree-d kernel-span flag variety, dimension of X)."""
    if d < 0 or d > min(m, n):
        raise ValueError(f"d={d} out of range for G({m},{m + n})")
    big = m * n + d * (m + n) - 3 * d * d
    a, b, nn = m - d, m + d, m + n
    assert big == (nn - b) * b + (b - a) * a
    return big, m * n


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
ring.PRODUCT[A] = _product
