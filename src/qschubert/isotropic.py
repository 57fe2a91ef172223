"""Quantum cohomology of the Lagrangian Grassmannian LG(n, 2n) and of the
maximal orthogonal Grassmannian OG(n+1, 2n+2).

Both rings have Schubert bases indexed by strict partitions with parts at
most n.  The deformation parameter q has degree n+1 on LG and 2n on OG.
A class is a Pfaffian of two-row classes (quantum Giambelli); taken in
the e-basis, that Pfaffian is the polynomial of :mod:`qschubert.qpoly`
with the same index.  On LG it is read in n+1 variables with e_(n+1) as
q/2, so the coefficient of q^d * s[nu] in s[lam] * s[mu] is 2^(-d) times
the structure constant at ((n+1)^d, nu).  On OG it is read in n variables
with e_k as 2 t[k], so the coefficient of q^d * t[nu] is the rescaled
structure constant at (n^(2d), nu).

These products are the e-basis route.  Folding the Giambelli terms of one
factor through the quantum Pieri rule recomputes them, and the two routes
are required to agree.  This module holds what is particular to LG and
OG: the two quantum Pieri rules, the two-row Giambelli formulas, both
readings of the e-basis, duality, line numbers and presentations.  The
element class, the fold and the checked products and invariant, which
each public function here calls, are in :mod:`qschubert.ring`.
"""

from __future__ import annotations

from functools import lru_cache

from . import qpoly, ring
from .combinat import (Partition, _components, horizontal_strip_additions,
                       horizontal_strip_removals, is_strict, trim)
from .ring import LG, OG, ContractViolation, Element, Report, Space


def IsoQHElement(flavor: str, n: int, coeffs=None) -> Element:
    """Integer combination of q^d times Schubert classes on LG or OG."""
    return Element(Space.of(flavor, None, n), coeffs)


# ---------------------------------------------------------------------------
# quantum Pieri and Pfaffian Giambelli rules


@lru_cache(maxsize=None)
def _pieri_lg(space: Space, lam: Partition, p: int):
    """The classical terms are the strict terms of :func:`qpoly._pieri`,
    2^(components off column 1) each; the q-terms remove n+1-p boxes with
    multiplicity 2^(components - 1)."""
    n = space.n
    terms = {(mu, 0): c for mu, c in qpoly._pieri(lam, p, n).items() if is_strict(mu)}
    for nu in horizontal_strip_removals(lam, n + 1 - p):
        if is_strict(nu):
            terms[(nu, 1)] = 1 << (_components(nu, lam)[0] - 1)
    return terms


@lru_cache(maxsize=None)
def _pieri_og(space: Space, lam: Partition, p: int):
    n = space.n
    terms: dict[tuple[Partition, int], int] = {}
    for mu in horizontal_strip_additions(lam, p, max_part=n):
        if is_strict(mu):
            terms[(mu, 0)] = 1 << (_components(lam, mu)[0] - 1)
        elif len(mu) >= 2 and mu[0] == n and mu[1] == n and is_strict(mu[2:]):
            terms[(mu[2:], 1)] = 1 << (_components(lam, mu)[0] - 1)
    return terms


def quantum_pieri_lg(lam, p: int, n: int) -> Element:
    """Quantum product with the special class s[p] on LG(n, 2n).

    Classical terms add p boxes (no two per column, result strict) with
    multiplicity 2^(components of the strip off the first column); the
    q-terms remove n+1-p boxes with multiplicity 2^(components - 1).
    """
    return ring.quantum_pieri(Space.of(LG, None, n), lam, p)


def quantum_pieri_og(lam, p: int, n: int) -> Element:
    """Quantum product with the special class t[p] on OG(n+1, 2n+2).

    Both sums add p boxes, no two per column, with multiplicity
    2^(components - 1); strict results are classical, results of the
    shape (n, n, rest) lose that leading pair and pick up q.
    """
    return ring.quantum_pieri(Space.of(OG, None, n), lam, p)


@lru_cache(maxsize=None)
def _two_row_terms(space: Space, i: int, j: int):
    """Quantum Giambelli for the two-row index (i, j), i >= j >= 1, as
    {(q power, special factors): coeff}:

        LG: s[i,j] = s[i]s[j] + 2 sum_{k=1}^{j} (-1)^k s[i+k]s[j-k]
                     + (-1)^(n+1-i) q s[i+j-n-1],
        OG: t[i,j] = t[i]t[j] + 2 sum_{k=1}^{j-1} (-1)^k t[i+k]t[j-k]
                     + (-1)^j t[i+j],

    where classes with an index above n vanish, and so does the q-term
    when i + j <= n.
    """
    n = space.n
    terms = {(0, (i, j)): 1}
    for k in range(1, min(j, n - i) + 1):
        factors = (i + k, j - k) if k < j else (i + j,)
        terms[(0, factors)] = (1 if k == j and space.kind == OG else 2) * (-1) ** k
    if space.kind == LG and i + j > n:
        e = i + j - n - 1
        terms[(1, (e,) if e else ())] = (-1) ** (n + 1 - i)
    return terms


def _read_q(coeffs: dict[Partition, int], n: int) -> dict:
    """Terms c * e_key in n+1 variables read on LG, with e_(n+1) as q/2:
    {(d, rest): c / 2^d} for key = (n+1)^d + rest, each division exact."""
    out = {}
    for key, c in coeffs.items():
        d = key.count(n + 1)  # parts are at most n+1, so these lead
        out[(d, key[d:])], r = divmod(c, 1 << d)
        if r:
            raise ContractViolation(f"constant {c} at {key} not divisible by 2^{d}")
    return out


@lru_cache(maxsize=None)
def _giambelli_lg(space: Space, lam: Partition):
    """The Pfaffian polynomial of lam in n+1 variables, read by :func:`_read_q`."""
    return _read_q(qpoly._qtilde(lam, space.n + 1).coeffs, space.n)


@lru_cache(maxsize=None)
def _giambelli_og(space: Space, lam: Partition):
    """The Pfaffian polynomial of lam in n variables, with e_k read as 2 t[k]."""
    coeffs = qpoly._rescaled(qpoly._qtilde(lam, space.n).coeffs, len(lam))
    return {(0, factors): c for factors, c in coeffs.items()}


def quantum_product_lg_pfaffian(lam, mu, n: int) -> Element:
    """LG product by folding the Pfaffian Giambelli of ``mu`` into ``lam``."""
    return ring.folded_product(Space.of(LG, None, n), lam, mu)


def quantum_product_og_pfaffian(lam, mu, n: int) -> Element:
    """OG product by folding the Pfaffian Giambelli of ``mu`` into ``lam``."""
    return ring.folded_product(Space.of(OG, None, n), lam, mu)


# ---------------------------------------------------------------------------
# the e-basis route


@lru_cache(maxsize=None)
def _product_lg(space: Space, lam: Partition, mu: Partition):
    terms = _read_q(qpoly._structure(lam, mu, space.n + 1), space.n)
    return {(rest, d): c for (d, rest), c in terms.items() if is_strict(rest)}


@lru_cache(maxsize=None)
def _product_og(space: Space, lam: Partition, mu: Partition):
    n = space.n
    out: dict[tuple[Partition, int], int] = {}
    for key, c in qpoly._rescaled(qpoly._structure(lam, mu, n), len(lam) + len(mu)).items():
        mult = key.count(n)  # parts are at most n, so these lead
        rest = key[mult:]
        if not is_strict(rest):
            continue
        d, odd = divmod(mult, 2)
        nu = ((n,) + rest) if odd else rest
        out[(nu, d)] = c
    return out


def quantum_product_lg(lam, mu, n: int, cross_check: bool = False) -> Element:
    """Quantum product on LG(n, 2n) via Pfaffian-polynomial constants.

    With ``cross_check`` the product is recomputed by folding the quantum
    Giambelli expansion of ``mu`` through the Pieri rule; disagreement
    raises :class:`ContractViolation`.
    """
    return ring.product(Space.of(LG, None, n), lam, mu, cross_check)


def quantum_product_og(lam, mu, n: int, cross_check: bool = False) -> Element:
    """Quantum product on OG(n+1, 2n+2) via rescaled structure constants."""
    return ring.product(Space.of(OG, None, n), lam, mu, cross_check)


def gw_lg(lam, mu, nu, d: int, n: int) -> int:
    """Degree-d three-point invariant on LG(n, 2n)."""
    return ring.invariant(Space.of(LG, None, n), lam, mu, nu, d)


def gw_og(lam, mu, nu, d: int, n: int) -> int:
    """Degree-d three-point invariant on OG(n+1, 2n+2)."""
    return ring.invariant(Space.of(OG, None, n), lam, mu, nu, d)


# ---------------------------------------------------------------------------
# line numbers, duality and presentations


def line_number_check_lg(lam, mu, nu, n: int) -> Report:
    """Compare a degree-one invariant on LG(n, 2n) with half the classical
    triple intersection of the same classes on LG(n+1, 2n+2)."""
    space = Space.of(LG, None, n)
    return line_number(space, *(space.check(x) for x in (lam, mu, nu)))


def line_number(space: Space, lam: Partition, mu: Partition, nu: Partition) -> Report:
    """:func:`line_number_check_lg` of classes of ``space``."""
    if not space.in_degree(1, lam, mu, nu):
        raise ValueError("weights do not match the degree-one condition")
    quantum = ring.gw(space, lam, mu, nu, 1)
    n = space.n
    # a degree-one weight on LG(n) is the dimension of LG(n+1)
    classical = ring.gw(Space(LG, None, n + 1), lam, mu, nu, 0)
    if classical % 2:
        raise ContractViolation(
            f"classical triple {classical} for {lam},{mu},{nu} is odd")
    ok = quantum == classical // 2
    failures = [] if ok else [
        f"line number {quantum} != half of {classical} for {lam},{mu},{nu} at n={n}"]
    return Report(ok=ok, checked=1, failures=failures,
                  data={"quantum": quantum, "classical": classical})


def duality_check(lam, mu, nu, d: int, n: int) -> Report:
    """Compare an OG invariant with its partner on LG(n-1, 2n-2).

    For a nonzero strict ``lam`` with len(lam) = 2d + e + 1 the OG
    invariant of degree d equals the LG invariant of degree e of the
    complemented data; when len(lam) < 2d + 1 the OG invariant vanishes.
    """
    og = Space.of(OG, None, n)
    if n < 1:
        raise ValueError(f"duality needs n >= 1 to pair with LG(n-1, 2n-2): n={n}")
    lam = og.check(lam)
    lg = Space.of(LG, None, n - 1)
    mu, nu = lg.check(mu), lg.check(nu)
    if not lam:
        raise ValueError("lam must be nonzero")
    if type(d) is not int:
        raise ValueError(f"degree d must be an int: d={d!r}")
    return duality(og, lam, mu, nu, d)


def duality(og: Space, lam: Partition, mu: Partition, nu: Partition, d: int) -> Report:
    """:func:`duality_check` of a nonzero class of ``og``, ``mu`` and ``nu`` of LG(n-1)."""
    n = og.n
    og_value = ring.gw(og, lam, mu, nu, d)
    e = len(lam) - 2 * d - 1
    if e < 0:
        ok = og_value == 0
        failures = [] if ok else [
            f"OG invariant {og_value} nonzero for short {lam}, d={d}, n={n}"]
        return Report(ok=ok, checked=1, failures=failures,
                      data={"og": og_value, "lg": None})
    lg = Space(LG, None, n - 1)
    hat = trim(tuple(n - x for x in reversed(lam)))  # combinat.hat_map
    lg_value = ring.gw(lg, hat, lg.dual(mu), lg.dual(nu), e)
    ok = og_value == lg_value
    failures = [] if ok else [
        f"duality fails for {lam},{mu},{nu}, d={d}, n={n}: OG {og_value} vs LG {lg_value}"]
    return Report(ok=ok, checked=1, failures=failures,
                  data={"og": og_value, "lg": lg_value})


def _evaluate(space: Space, terms: dict) -> dict:
    """Signed q-power monomials of at most two special classes, evaluated
    with the space's production product, ``ring.PRODUCT``."""
    product = ring.PRODUCT[space.kind]
    return ring.combine(terms, lambda f: product(space, f[:1], f[1:]) if len(f) > 1
                        else {(f, 0): 1})


def presentation_report_isotropic(flavor: str, n: int) -> Report:
    """Check the quantum ring presentation (and, on OG, the two-row
    Giambelli identities) by direct evaluation of every relation.

    The relations say that the two-row Giambelli expansion of the
    non-strict index (i, i) vanishes, for i <= n on LG and i < n on OG.
    """
    space = Space.of(flavor, None, n)
    if not n:
        raise ValueError(f"{space.label} is a point; there is no presentation to check")
    failures = []
    squares = range(1, n + 1) if flavor == LG else range(1, n)
    for i in squares:
        if _evaluate(space, _two_row_terms(space, i, i)):
            failures.append(f"{flavor} relation i={i} fails at n={n}")
    checked = len(squares)
    if flavor == OG:
        top = space.element(ring.PRODUCT[space.kind](space, (n,), (n,)))
        checked += 1
        if top != space.element({((), 1): 1}):
            failures.append(f"t[{n}]^2 = {top.text()} on OG, expected q")
        for i in range(2, n + 1):
            for j in range(1, i):
                checked += 1
                if _evaluate(space, _two_row_terms(space, i, j)) != {((i, j), 0): 1}:
                    failures.append(f"OG two-row Giambelli fails for ({i},{j}) at n={n}")
    return Report(ok=not failures, checked=checked, failures=failures)


def _unordered(product):
    """``product`` with its pair in one order, so that both orders of a
    pair share one memo entry."""
    def ordered(space: Space, lam: Partition, mu: Partition):
        return product(space, lam, mu) if lam >= mu else product(space, mu, lam)
    return ordered


for _kind, _pieri, _giambelli, _product in ((LG, _pieri_lg, _giambelli_lg, _product_lg),
                                            (OG, _pieri_og, _giambelli_og, _product_og)):
    ring.PIERI[_kind] = _pieri
    ring.GIAMBELLI[_kind] = _giambelli
    ring.ROUTES[_kind] = {"qtilde": _unordered(_product), "pieri": ring.giambelli_fold}
    ring.PRODUCT[_kind] = ring.ROUTES[_kind]["qtilde"]
del _kind, _pieri, _giambelli, _product
