"""Classical and quantum cohomology of the type A Grassmannian G(m, N).

Schubert classes are indexed by partitions inside the m x n rectangle,
n = N - m.  Products are computed by expanding one factor as a Schur
determinant in the special (one-row) classes and folding the resulting
monomials through the quantum Pieri rule, which is exact integer work:

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
the Jacobi-Trudi (Schur determinant) expansion, the puzzle route and the
presentation.  The element class, the fold, the Giambelli-fold product
and the invariant are shared with LG and OG in :mod:`qschubert.ring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
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
    terms: dict[tuple[Partition, int], int] = {}
    for mu in horizontal_strip_additions(lam, p, max_part=n, max_rows=m):
        terms[(mu, 0)] = 1
    if len(lam) == m:
        # remove m + n - p boxes from the rim, at least one from every row:
        # the first column, then a horizontal strip of n - p boxes
        for nu in horizontal_strip_removals(trim(tuple(x - 1 for x in lam)), n - p):
            terms[(nu, 1)] = 1
    return terms


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


def _fold_lighter(space: Space, lam: Partition, mu: Partition):
    """The lighter factor is the one expanded through its determinant,
    which bounds the depth of iterated Pieri steps."""
    if sum(mu) <= sum(lam):
        return giambelli_fold(space, lam, mu)
    return giambelli_fold(space, mu, lam)


def quantum_product_a(lam, mu, m: int, n: int) -> QHElement:
    """Quantum product of two Schubert classes."""
    space = Space.of(A, m, n)
    return space.element(_fold_lighter(space, space.check(lam), space.check(mu)))


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
    checked = 0
    for k in range(m + 1, N + 1):
        value = space.element(giambelli_fold(space, (), (1,) * k))
        expected = space.element({} if k < N else {((), 1): (-1) ** (n + 1)})
        checked += 1
        if value != expected:
            failures.append(f"D_{k} = {value.text()} on G({m},{N})")
    point = space.element(_fold_lighter(space, (n,), (1,) * m))
    checked += 1
    if point != space.element({((), 1): 1}):
        failures.append(f"s[{n}]*s[1^{m}] = {point.text()} on G({m},{N})")
    return Report(ok=not failures, checked=checked, failures=failures)


clear_caches = ring.clear_caches  # the benchmark's reference builder calls it here

ring.PIERI[A] = _pieri_map
ring.GIAMBELLI[A] = lambda space, lam: _det_terms(lam, space.n)
ring.PRODUCT[A] = _fold_lighter
