"""Quantum cohomology of the Lagrangian Grassmannian LG(n, 2n) and of the
maximal orthogonal Grassmannian OG(n+1, 2n+2).

Both rings have Schubert bases indexed by strict partitions with parts at
most n.  The deformation parameter q has degree n+1 on LG and 2n on OG.
Products are computed through the Pfaffian-polynomial structure constants
of :mod:`qschubert.qpoly`:

* on LG, the coefficient of q^d * s[nu] in s[lam] * s[mu] is
  2^(-d) times the structure constant at ((n+1)^d, nu) computed in n+1
  variables (the power of two always divides exactly);
* on OG, the coefficient of q^d * t[nu] is the rescaled structure
  constant at (n^(2d), nu) computed in n variables.

Each ring also carries a quantum Pieri rule and a Pfaffian Giambelli
expansion; products can be recomputed by folding Giambelli monomials
through the Pieri rule, and the two routes are required to agree.

This module holds what is particular to LG and OG: the two quantum Pieri
rules, the two-row Giambelli formulas and the Pfaffian expansion over
them, the e-basis route, duality, line numbers and presentations.  The
element class, the fold, the Giambelli-fold product and the invariant
are shared with G(m, N) in :mod:`qschubert.ring`.
"""

from __future__ import annotations

from functools import lru_cache

from . import ring
from .combinat import (Partition, horizontal_strip_additions,
                       horizontal_strip_removals, is_strict,
                       skew_component_stats, trim)
from .qpoly import ContractViolation, ptilde_structure, qtilde_structure
from .ring import LG, OG, IsoQHElement, Space, giambelli_fold
from .typea import Report


# ---------------------------------------------------------------------------
# quantum Pieri and Pfaffian Giambelli rules


@lru_cache(maxsize=None)
def _pieri_lg(space: Space, lam: Partition, p: int):
    n = space.n
    terms: dict[tuple[Partition, int], int] = {}
    for mu in horizontal_strip_additions(lam, p, max_part=n):
        if is_strict(mu):
            _, off = skew_component_stats(lam, mu)
            terms[(mu, 0)] = 1 << off
    drop = n + 1 - p
    for nu in horizontal_strip_removals(lam, drop):
        if is_strict(nu):
            comps, _ = skew_component_stats(nu, lam)
            terms[(nu, 1)] = 1 << (comps - 1)
    return terms


@lru_cache(maxsize=None)
def _pieri_og(space: Space, lam: Partition, p: int):
    n = space.n
    terms: dict[tuple[Partition, int], int] = {}
    for mu in horizontal_strip_additions(lam, p, max_part=n):
        comps, _ = skew_component_stats(lam, mu)
        if is_strict(mu):
            terms[(mu, 0)] = 1 << (comps - 1)
        elif len(mu) >= 2 and mu[0] == n and mu[1] == n and is_strict(mu[2:]):
            terms[(mu[2:], 1)] = 1 << (comps - 1)
    return terms


def quantum_pieri_lg(lam, p: int, n: int) -> IsoQHElement:
    """Quantum product with the special class s[p] on LG(n, 2n).

    Classical terms add p boxes (no two per column, result strict) with
    multiplicity 2^(components of the strip off the first column); the
    q-terms remove n+1-p boxes with multiplicity 2^(components - 1).
    """
    return ring.quantum_pieri(Space.of(LG, None, n), lam, p)


def quantum_pieri_og(lam, p: int, n: int) -> IsoQHElement:
    """Quantum product with the special class t[p] on OG(n+1, 2n+2).

    Both sums add p boxes, no two per column, with multiplicity
    2^(components - 1); strict results are classical, results of the
    shape (n, n, rest) lose that leading pair and pick up q.
    """
    return ring.quantum_pieri(Space.of(OG, None, n), lam, p)


@lru_cache(maxsize=None)
def _two_row_terms(space: Space, i: int, j: int):
    """Quantum Giambelli for the two-row index (i, j), i >= j, as
    {(q power, special factors): coeff}:

        LG: s[i,j] = s[i]s[j] + 2 sum_{k=1}^{j} (-1)^k s[i+k]s[j-k]
                     + (-1)^(n+1-i) q s[i+j-n-1],
        OG: t[i,j] = t[i]t[j] + 2 sum_{k=1}^{j-1} (-1)^k t[i+k]t[j-k]
                     + (-1)^j t[i+j],

    where classes with an index above n vanish, and so does the q-term
    when i + j <= n.
    """
    n = space.n
    if j == 0:
        return {(0, (i,) if i else ()): 1}
    terms = {(0, (i, j)): 1}
    for k in range(1, min(j, n - i) + 1):
        factors = (i + k, j - k) if k < j else (i + j,)
        terms[(0, factors)] = (1 if k == j and space.kind == OG else 2) * (-1) ** k
    if space.kind == LG and i + j > n:
        e = i + j - n - 1
        terms[(1, (e,) if e else ())] = (-1) ** (n + 1 - i)
    return terms


@lru_cache(maxsize=None)
def _pfaffian_terms(space: Space, lam: Partition):
    """A class as signed q-power monomials in special classes, by Laplace
    expansion of its Pfaffian along pairs containing the last entry."""
    if len(lam) <= 1:
        return {(0, lam): 1}
    if len(lam) == 2:
        return _two_row_terms(space, *lam)
    parts = lam if len(lam) % 2 == 0 else lam + (0,)
    r = len(parts)
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    for idx in range(r - 1):
        sign = (-1) ** idx
        rest = parts[:idx] + parts[idx + 1:r - 1]
        for (d1, f1), c1 in _two_row_terms(space, parts[idx], parts[r - 1]).items():
            for (d2, f2), c2 in _pfaffian_terms(space, rest).items():
                key = (d1 + d2, tuple(sorted(f1 + f2, reverse=True)))
                out[key] = out.get(key, 0) + sign * c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def quantum_product_lg_pfaffian(lam, mu, n: int) -> IsoQHElement:
    """LG product by folding the Pfaffian Giambelli of ``mu`` into ``lam``."""
    return ring.folded_product(Space.of(LG, None, n), lam, mu)


def quantum_product_og_pfaffian(lam, mu, n: int) -> IsoQHElement:
    """OG product by folding the Pfaffian Giambelli of ``mu`` into ``lam``."""
    return ring.folded_product(Space.of(OG, None, n), lam, mu)


# ---------------------------------------------------------------------------
# the e-basis route


@lru_cache(maxsize=None)
def _product_lg(space: Space, lam: Partition, mu: Partition):
    n = space.n
    out: dict[tuple[Partition, int], int] = {}
    for key, c in qtilde_structure(lam, mu, n + 1).items():
        d = 0
        while d < len(key) and key[d] == n + 1:
            d += 1
        rest = key[d:]
        if not is_strict(rest):
            continue
        q, r = divmod(c, 1 << d)
        if r:
            raise ContractViolation(f"constant {c} at {key} not divisible by 2^{d}")
        out[(rest, d)] = q
    return out


@lru_cache(maxsize=None)
def _product_og(space: Space, lam: Partition, mu: Partition):
    n = space.n
    out: dict[tuple[Partition, int], int] = {}
    for key, c in ptilde_structure(lam, mu, n).items():
        mult = 0
        while mult < len(key) and key[mult] == n:
            mult += 1
        rest = key[mult:]
        if not is_strict(rest):
            continue
        d, odd = divmod(mult, 2)
        nu = ((n,) + rest) if odd else rest
        out[(nu, d)] = c
    return out


def _quantum_product(space: Space, lam, mu, cross_check: bool) -> IsoQHElement:
    lam = space.check(lam)
    mu = space.check(mu)
    result = space.element(ring.PRODUCT[space.kind](space, lam, mu))
    if cross_check:
        other = space.element(giambelli_fold(space, lam, mu))
        if result != other:
            raise ContractViolation(
                f"{space.kind} product routes disagree for {lam} * {mu} at n={space.n}: "
                f"{result.text()} vs {other.text()}")
    return result


def quantum_product_lg(lam, mu, n: int, cross_check: bool = False) -> IsoQHElement:
    """Quantum product on LG(n, 2n) via Pfaffian-polynomial constants.

    With ``cross_check`` the product is recomputed by folding the quantum
    Giambelli expansion of ``mu`` through the Pieri rule; disagreement
    raises :class:`ContractViolation`.
    """
    return _quantum_product(Space.of(LG, None, n), lam, mu, cross_check)


def quantum_product_og(lam, mu, n: int, cross_check: bool = False) -> IsoQHElement:
    """Quantum product on OG(n+1, 2n+2) via rescaled structure constants."""
    return _quantum_product(Space.of(OG, None, n), lam, mu, cross_check)


def gw_lg(lam, mu, nu, d: int, n: int) -> int:
    """Degree-d three-point invariant on LG(n, 2n)."""
    space = Space.of(LG, None, n)
    return ring.gw(space, *(space.check(x) for x in (lam, mu, nu)), d)


def gw_og(lam, mu, nu, d: int, n: int) -> int:
    """Degree-d three-point invariant on OG(n+1, 2n+2)."""
    space = Space.of(OG, None, n)
    return ring.gw(space, *(space.check(x) for x in (lam, mu, nu)), d)


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
    up = Space(LG, None, n + 1)
    classical = _product_lg(up, lam, mu).get((up.dual(nu), 0), 0)
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
    lam = og.check(lam)
    lg = Space.of(LG, None, n - 1)
    mu, nu = lg.check(mu), lg.check(nu)
    if not lam:
        raise ValueError("lam must be nonzero")
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
    with the e-basis product."""
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
    failures = []
    squares = range(1, n + 1) if flavor == LG else range(1, n)
    for i in squares:
        if _evaluate(space, _two_row_terms(space, i, i)):
            failures.append(f"{flavor} relation i={i} fails at n={n}")
    checked = len(squares)
    if flavor == OG:
        top = space.element(_product_og(space, (n,), (n,)))
        checked += 1
        if top != space.element({((), 1): 1}):
            failures.append(f"t[{n}]^2 = {top.text()} on OG, expected q")
        for i in range(2, n + 1):
            for j in range(1, i):
                checked += 1
                if _evaluate(space, _two_row_terms(space, i, j)) != {((i, j), 0): 1}:
                    failures.append(f"OG two-row Giambelli fails for ({i},{j}) at n={n}")
    return Report(ok=not failures, checked=checked, failures=failures)


for _kind, _pieri, _product in ((LG, _pieri_lg, _product_lg),
                                (OG, _pieri_og, _product_og)):
    ring.PIERI[_kind] = _pieri
    ring.GIAMBELLI[_kind] = _pfaffian_terms
    ring.PRODUCT[_kind] = _product
