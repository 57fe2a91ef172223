"""The ring of symmetric polynomials in n variables, in the e-basis.

Elements are integer combinations of products e_{lam_1} e_{lam_2} ...,
named by the partition of subscripts; e_k vanishes for k > n, so parts
are at most n.  Each monomial is packed into one integer, so that a
product of monomials is one addition (see :class:`EPoly`).  On top of
this the module builds the family of Pfaffian polynomials indexed by
partitions with parts at most n: a single subscript gives e_k itself, a
pair (i, j) is defined by

    pf(i, j) = e_i e_j + 2 * sum_{k=1}^{n-i} (-1)^k e_{i+k} e_{j-k},

and longer indices are expanded as a Pfaffian of the pair values along
the last entry, where an odd run of equal parts leaves one term and an
even run cancels (the ungrouped first-entry expansion is the check).
These form a free integer basis of the ring; converting into that basis
is an exact unitriangular solve, and the resulting structure constants carry
the Schubert calculus of the maximal isotropic Grassmannians.
"""

from __future__ import annotations

from functools import lru_cache

from .combinat import (Partition, _components, horizontal_strip_additions, is_strict,
                       partition, sizes)
from .ring import ContractViolation


def _width(n: int, w: int = 0) -> int:
    """Bits b per digit of a packed key in n variables, enough for n(n+1)
    and at least 5; raises ValueError if a weight w is above 2^b - 1."""
    b = max(5, (n * (n + 1)).bit_length())
    if w >> b:
        raise ValueError(f"weight {w} is above the cap {(1 << b) - 1} "
                         f"of e-basis monomials in n={n} variables")
    return b


def _key(lam, n: int) -> int:
    """The packed key of the monomial e_lam (positive parts at most n)."""
    w = sum(lam)
    b = _width(n, w)
    return sum(1 << b * (k - 1) for k in lam) + (w << b * n)


def _partition(key: int, n: int) -> Partition:
    """The partition a packed key encodes."""
    b = _width(n)
    return tuple(k for k in range(n, 0, -1) for _ in range(key >> b * (k - 1) & (1 << b) - 1))


class EPoly:
    """Integer polynomial in e_1..e_n, one packed integer key per monomial.

    With b = _width(n) bits per digit, the key of e_lam holds the
    multiplicity of e_k in digit k-1 and the weight |lam| above digit n-1,
    so the key of a product is the sum of the keys.  Among keys of one
    weight, integer order is the lex order of partitions (where two first
    differ, the larger has one more copy of that part and as many of every
    larger one), the order of the unitriangular basis solve.  Weights are
    capped at 2^b - 1, which is at least 31 and at least n(n+1), so no
    digit carries; a key or product above the cap raises ValueError.
    ``terms`` is keyed by packed keys, ``coeffs`` by partitions.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, coeffs: dict[Partition, int] | None = None):
        sizes(n=n)
        self.n = n
        terms: dict[int, int] = {}
        for lam, c in (coeffs or {}).items():
            if type(c) is not int:
                raise ValueError(f"coefficient of e{lam!r} must be an int: c={c!r}")
            lam = partition(lam)
            if lam and lam[0] > n:
                raise ValueError(f"key {lam} has a part above n={n}")
            key = _key(lam, n)
            if c:
                terms[key] = terms.get(key, 0) + c
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _of(cls, n: int, terms: dict[int, int]) -> "EPoly":
        """Wrap (and own) packed terms the engine built, dropping zero
        coefficients."""
        f = object.__new__(cls)
        f.n = n
        f.terms = {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms
        return f

    @classmethod
    def monomial(cls, n: int, lam, coeff: int = 1) -> "EPoly":
        return cls(n, {tuple(lam): coeff})

    @classmethod
    def zero(cls, n: int) -> "EPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "EPoly":
        return cls(n, {(): 1})

    @property
    def coeffs(self) -> dict[Partition, int]:
        return {_partition(k, self.n): c for k, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "EPoly") -> "EPoly":
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return EPoly._of(self.n, out)

    def __sub__(self, other: "EPoly") -> "EPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "EPoly":
        return EPoly._of(self.n, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "EPoly") -> "EPoly":
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        out: dict[int, int] = {}
        if self.terms and other.terms:  # the largest keys have the largest weights
            n = self.n
            _width(n, (max(self.terms) + max(other.terms)) >> _width(n) * n)
            _add_product(out, self, other, 1)
        return EPoly._of(self.n, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EPoly) and self.n == other.n
                and self.terms == other.terms)

    def homogeneous_weight(self) -> int | None:
        """Common weight of all keys, None for 0; raises if inhomogeneous."""
        shift = _width(self.n) * self.n
        weights = {k >> shift for k in self.terms}
        if len(weights) > 1:
            raise ValueError(f"inhomogeneous element, weights {sorted(weights)}")
        return weights.pop() if weights else None

    def __repr__(self) -> str:
        if not self.terms:
            return "EPoly(0)"
        terms = " + ".join(f"{c}*e{list(k)}" for k, c in sorted(self.coeffs.items()))
        return f"EPoly({terms})"


def _add_product(total: dict[int, int], f: EPoly, g: EPoly, c: int):
    """Add c * f * g into a packed coefficient dict in place."""
    get = total.get
    for k1, c1 in f.terms.items():
        c1 *= c
        for k2, c2 in g.terms.items():
            key = k1 + k2
            total[key] = get(key, 0) + c1 * c2


@lru_cache(maxsize=None)
def _pair_epoly(i: int, j: int, n: int) -> EPoly:
    """The two-subscript Pfaffian polynomial, for n >= i >= j >= 0 and i >= 1."""
    if j == 0:
        return _qtilde((i,), n)
    terms = {_key((i, j), n): 1}
    for k in range(1, n - i + 1):
        lo = j - k
        if lo < 0:
            break
        key = _key((i + k, lo) if lo else (i + k,), n)
        terms[key] = terms.get(key, 0) + 2 * (-1) ** k
    return EPoly._of(n, terms)


def qtilde_epoly(lam, n: int) -> EPoly:
    """Expand the Pfaffian polynomial with index ``lam`` in the e-basis.

    Defined for arbitrary partitions; vanishes when a part exceeds n.
    Indices of length >= 3 are expanded by Pfaffian Laplace expansion
    along pairs containing the last entry, padding with a zero part when
    the length is odd.  An odd run of equal parts leaves the term of its
    first position and an even run cancels; the ungrouped expansion
    :func:`qtilde_pfaffian_first_row` is the check.
    """
    sizes(n=n)
    return _qtilde(partition(lam), n)


@lru_cache(maxsize=None)
def _qtilde(lam: Partition, n: int) -> EPoly:
    if lam and lam[0] > n:
        return EPoly.zero(n)
    if len(lam) <= 1:
        return EPoly._of(n, {_key(lam, n): 1})
    if len(lam) == 2:
        return _pair_epoly(lam[0], lam[1], n)
    _width(n, sum(lam))
    parts = lam if len(lam) % 2 == 0 else lam + (0,)
    head, last = parts[:-1], parts[-1]
    total: dict[int, int] = {}
    for j, part in enumerate(head):
        # equal parts share the pair factor and the minor, with alternating
        # signs: an odd run leaves its first term and an even run cancels
        if head.index(part) == j and head.count(part) % 2:
            _add_product(total, _pair_epoly(part, last, n),
                         _qtilde(head[:j] + head[j + 1:], n), (-1) ** j)
    return EPoly._of(n, total)


def qtilde_pfaffian_first_row(lam, n: int) -> EPoly:
    """Same Pfaffian expanded along pairs containing the first entry, to
    cross-check that different Laplace expansions agree."""
    sizes(n=n)
    return _pfaffian_first_row(partition(lam), n)


@lru_cache(maxsize=None)
def _pfaffian_first_row(lam: Partition, n: int) -> EPoly:
    if lam and lam[0] > n:
        return EPoly.zero(n)
    if len(lam) <= 2:
        return _qtilde(lam, n)
    _width(n, sum(lam))
    parts = lam if len(lam) % 2 == 0 else lam + (0,)
    r = len(parts)
    total: dict[int, int] = {}
    for j in range(1, r):
        rest = parts[1:j] + parts[j + 1:]
        _add_product(total, _pair_epoly(parts[0], parts[j], n),
                     _pfaffian_first_row(rest, n), (-1) ** (j - 1))
    return EPoly._of(n, total)


@lru_cache(maxsize=None)
def _transition(key: int, n: int) -> tuple[Partition, dict[int, int]]:
    """Index and row of the basis-to-e transition matrix at a packed key,
    asserted to have a unit pivot and no term below the diagonal."""
    nu = _partition(key, n)
    row = _qtilde(nu, n).terms
    if row.get(key) != 1:
        raise ContractViolation(f"pivot at {nu} is {row.get(key)}, not 1")
    if min(row) < key:
        raise ContractViolation(
            f"row {nu} reaches below the diagonal at {_partition(min(row), n)}")
    return nu, row


def expand_in_qtilde(f: EPoly, n: int) -> dict[Partition, int]:
    """Coefficients of a homogeneous element in the Pfaffian-polynomial basis.

    Solved by back-substitution over the integers: the least key of the
    residual can only come from the basis element with that index, so only
    the rows the residual reaches are read.
    """
    sizes(n=n)
    if f.n != n:
        raise ValueError("element lives in a different variable count")
    f.homogeneous_weight()
    return _expand(f.terms, n)


def _expand(terms: dict[int, int], n: int) -> dict[Partition, int]:
    """:func:`expand_in_qtilde` of packed terms the engine built."""
    residual = dict(terms)
    get, pop = residual.get, residual.pop
    out: dict[Partition, int] = {}
    while residual:
        nu = min(residual)
        c = residual[nu]
        index, row = _transition(nu, n)
        out[index] = c
        for mu, v in row.items():
            newc = get(mu, 0) - c * v
            if newc:
                residual[mu] = newc
            else:
                pop(mu)
    return out


def qtilde_structure(lam, mu, n: int) -> dict[Partition, int]:
    """Structure constants of the product of two basis elements."""
    return _structure(*_checked(lam, mu, n), n)


def _checked(lam, mu, n: int) -> tuple[Partition, Partition]:
    sizes(n=n)
    lam, mu = partition(lam), partition(mu)
    if (lam and lam[0] > n) or (mu and mu[0] > n):
        raise ValueError(f"parts must be at most n={n}")
    _width(n, sum(lam) + sum(mu))
    return lam, mu


def _structure(lam: Partition, mu: Partition, n: int) -> dict[Partition, int]:
    return _expand((_qtilde(lam, n) * _qtilde(mu, n)).terms, n)


def ptilde_structure(lam, mu, n: int) -> dict[Partition, int]:
    """Structure constants after rescaling each index by 2^(-length).

    The rescaled constants are 2^(len(nu)-len(lam)-len(mu)) times the
    plain ones and are always integers; a failure of divisibility means
    the engine is broken, not bad input.
    """
    lam, mu = _checked(lam, mu, n)
    return _rescaled(_structure(lam, mu, n), len(lam) + len(mu))


def _rescaled(structure: dict[Partition, int], shift: int) -> dict[Partition, int]:
    """:func:`ptilde_structure` from the plain constants of a pair with ``shift`` parts."""
    out = {}
    for nu, c in structure.items():
        exp = len(nu) - shift
        if exp >= 0:
            out[nu] = c * (1 << exp)
        else:
            q, r = divmod(c, 1 << -exp)
            if r:
                raise ContractViolation(
                    f"coefficient {c} at {nu} is not divisible by 2^{-exp}")
            out[nu] = q
    return out


def qtilde_pieri(lam, p: int, n: int) -> dict[Partition, int]:
    """Pieri expansion of a strict index times a single subscript.

    Sums 2^N(lam, mu) over all mu with parts at most n (not necessarily
    strict) obtained by adding p boxes, no two in one column, where N
    counts the components of mu/lam avoiding the first column.
    """
    sizes(p=p, n=n)
    lam = partition(lam)
    if not is_strict(lam):
        raise ValueError(f"{lam} is not strict")
    if p > n:
        raise ValueError(f"p={p} out of range 0..{n}")
    return _pieri(lam, p, n)


def _pieri(lam: Partition, p: int, n: int) -> dict[Partition, int]:
    return {mu: 1 << _components(lam, mu)[1]
            for mu in horizontal_strip_additions(lam, p, max_part=n)}
