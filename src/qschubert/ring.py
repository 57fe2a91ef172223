"""The quantum ring shared by G(m, N), LG(n, 2n) and OG(n+1, 2n+2).

Each ring has a quantum Pieri rule for multiplying by a special (one-row)
class and a Giambelli formula writing any class in the special classes;
folding one through the other gives products and invariants.  A
:class:`Space` dispatches to its own rules, which live in
:mod:`qschubert.typea` and :mod:`qschubert.isotropic`.

A caller's partition is checked once, by the public function called
(:meth:`Space.check`, the element constructors).  Engine code calls only
trusted forms on what it built or checked, such as :func:`gw` and each
space's production product in ``PRODUCT``, and only drops zero
coefficients.  :meth:`Space.in_degree` is every route's degree rule.

Memos are unbounded ``functools.lru_cache``s, put only on functions whose
results the workloads reuse; :func:`clear_caches` empties all of them.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, NamedTuple

from .combinat import Partition, in_box, is_strict, partition, trim

A = "A"
LG = "LG"
OG = "OG"

# Each space's Pieri map (space, lam, p) -> {(nu, d): c}, Giambelli terms
# (space, lam) -> {(d, special factors): c} and production product
# (space, lam, mu) -> {(nu, d): c}, registered by the module that owns them.
PIERI: dict[str, Callable] = {}
GIAMBELLI: dict[str, Callable] = {}
PRODUCT: dict[str, Callable] = {}


class Space(NamedTuple):
    """G(m, m+n) for kind A; LG(n, 2n) or OG(n+1, 2n+2), with m None."""

    kind: str
    m: int | None
    n: int

    @classmethod
    def of(cls, kind: str, m: int | None, n: int) -> Space:
        """Check caller-supplied sizes: m only for kind A, none negative."""
        if kind not in (A, LG, OG) or (m is None) != (kind != A):
            raise ValueError(f"unknown flavor {kind!r} with m={m}")
        if n < 0 or (m is not None and m < 0):
            raise ValueError(f"negative size: m={m}, n={n}")
        return cls(kind, m, n)

    def check(self, lam) -> Partition:
        """Canonicalise a partition from a caller and check that it indexes a class."""
        if self.kind == A:
            return in_box(lam, self.m, self.n)
        lam = partition(lam)
        if not is_strict(lam) or (lam and lam[0] > self.n):
            raise ValueError(f"{lam} is not a strict partition bounded by {self.n}")
        return lam

    @property
    def q_degree(self) -> int:
        if self.kind == A:
            return self.m + self.n
        return self.n + 1 if self.kind == LG else 2 * self.n

    @property
    def dim(self) -> int:
        if self.kind == A:
            return self.m * self.n
        return self.n * (self.n + 1) // 2

    def in_degree(self, d: int, *classes: Partition) -> bool:
        """Whether d >= 0 and the weights of the classes add up to dim + d * q_degree."""
        return d >= 0 and sum(map(sum, classes)) == self.dim + d * self.q_degree

    def dual(self, lam: Partition) -> Partition:
        """Index of the Poincare dual class of an admissible partition."""
        if self.kind == A:
            padded = lam + (0,) * (self.m - len(lam))
            return trim(tuple(self.n - x for x in reversed(padded)))
        return tuple(x for x in range(self.n, 0, -1) if x not in lam)

    @property
    def symbol(self) -> str:
        return "t" if self.kind == OG else "s"

    @property
    def label(self) -> str:
        if self.kind == A:
            return f"G({self.m},{self.m + self.n})"
        if self.kind == LG:
            return f"LG({self.n},{2 * self.n})"
        return f"OG({self.n + 1},{2 * self.n + 2})"

    def pieri(self, lam: Partition, p: int) -> dict:
        return PIERI[self.kind](self, lam, p)

    def giambelli(self, lam: Partition) -> dict:
        return GIAMBELLI[self.kind](self, lam)

    def element(self, coeffs: dict) -> Element:
        """Wrap coefficients the engine computed; only zeros are dropped."""
        elem = object.__new__(QHElement if self.kind == A else IsoQHElement)
        elem.space = self
        elem.coeffs = {k: c for k, c in coeffs.items() if c}
        return elem


class Element:
    """Integer combination of q^d times Schubert classes of one space."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: Space, coeffs=None):
        self.space = space
        clean: dict[tuple[Partition, int], int] = {}
        for (nu, d), c in (coeffs or {}).items():
            if c == 0:
                continue
            nu = space.check(nu)
            if d < 0:
                raise ValueError("negative q exponent")
            clean[(nu, d)] = clean.get((nu, d), 0) + c
        self.coeffs = {k: c for k, c in clean.items() if c != 0}

    @property
    def m(self) -> int | None:
        return self.space.m

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def flavor(self) -> str:
        return self.space.kind

    def coefficient(self, nu, d: int = 0) -> int:
        return self.coeffs.get((partition(nu), d), 0)

    def terms(self):
        """Terms sorted by ascending q power, then by descending partition."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], tuple(-x for x in kv[0][0])))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.space == other.space
                and self.coeffs == other.coeffs)

    def text(self) -> str:
        symbol = self.space.symbol
        if not self.coeffs:
            return "0"
        parts = []
        for (nu, d), c in self.terms():
            bits = []
            if c != 1:
                bits.append(str(c))
            if d == 1:
                bits.append("q")
            elif d > 1:
                bits.append(f"q^{d}")
            bits.append(f"{symbol}[{','.join(str(x) for x in nu)}]")
            parts.append("*".join(bits))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.space.label}, {self.text()})"


class QHElement(Element):
    """Integer combination of q^d * s[nu] in the quantum ring of G(m, N)."""

    __slots__ = ()

    def __init__(self, m: int, n: int, coeffs=None):
        super().__init__(Space.of(A, m, n), coeffs)


class IsoQHElement(Element):
    """Integer combination of q^d times Schubert classes on LG or OG."""

    __slots__ = ()

    def __init__(self, flavor: str, n: int, coeffs=None):
        super().__init__(Space.of(flavor, None, n), coeffs)


def quantum_pieri(space: Space, lam, p: int) -> Element:
    """Quantum product of a caller's class with the special class of index p."""
    lam = space.check(lam)
    if not 1 <= p <= space.n:
        raise ValueError(f"p={p} out of range 1..{space.n}")
    return space.element(space.pieri(lam, p))


@lru_cache(maxsize=None)
def fold(space: Space, lam: Partition, ps: tuple[int, ...]) -> dict:
    """Quantum product of s[lam] with the special classes in ps."""
    if not ps:
        return {(lam, 0): 1}
    out: dict[tuple[Partition, int], int] = {}
    for (kappa, d1), c1 in space.pieri(lam, ps[0]).items():
        for (nu, d2), c2 in fold(space, kappa, ps[1:]).items():
            key = (nu, d1 + d2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def combine(terms: dict, value: Callable) -> dict:
    """The sum of coeff * q^d * value(index) over {(d, index): coeff}."""
    out: dict[tuple[Partition, int], int] = {}
    for (d0, index), coeff in terms.items():
        for (nu, d), c in value(index).items():
            key = (nu, d + d0)
            out[key] = out.get(key, 0) + coeff * c
    return {k: c for k, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def giambelli_fold(space: Space, lam: Partition, mu: Partition) -> dict:
    """Product of s[lam] and s[mu], folding the Giambelli expansion of mu
    through the Pieri rule into lam.

    Individual Giambelli terms can carry q-corrections that cancel in the
    total, which is what makes this route a worthwhile validator.
    """
    return combine(space.giambelli(mu), lambda factors: fold(space, lam, factors))


def folded_product(space: Space, lam, mu) -> Element:
    """Product of a caller's classes by the Giambelli fold of mu into lam."""
    return space.element(giambelli_fold(space, space.check(lam), space.check(mu)))


def gw(space: Space, lam: Partition, mu: Partition, nu: Partition, d: int,
       product: Callable | None = None) -> int:
    """Degree-d invariant of admissible classes: the coefficient of q^d s[dual nu]
    in ``product(space, lam, mu)``, by default the space's ``PRODUCT``."""
    if not space.in_degree(d, lam, mu, nu):
        return 0
    product = product or PRODUCT[space.kind]
    return product(space, lam, mu).get((space.dual(nu), d), 0)


def clear_caches():
    """Empty every in-process memo: each ``lru_cache`` bound in a loaded
    ``qschubert`` module."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.partition(".")[0] == "qschubert":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
