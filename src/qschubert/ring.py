"""The quantum ring shared by G(m, N), LG(n, 2n) and OG(n+1, 2n+2).

Each ring has a quantum Pieri rule for multiplying by a special (one-row)
class and a Giambelli formula writing any class in the special classes;
folding one through the other (:func:`giambelli_fold`) gives products and
invariants.  A :class:`Space` dispatches to its own rules, which live in
:mod:`qschubert.typea` and :mod:`qschubert.isotropic` and are read
through the registries ``PIERI``, ``GIAMBELLI``, ``ROUTES`` and
``PRODUCT``: the first lookup of a kind imports the module that owns it,
so a caller that imported only this module reaches every space.
``ROUTES[kind]`` maps each ``gw --method`` name to a product route:
``pieri`` on G(m, N), the Jacobi-Trudi determinant expanded row by row
after turning the pair in its s[n] rotation orbit to the cheapest one
(memoised in ``typea``); ``qtilde``, the e-basis constants, and ``pieri``,
the fold, on LG and OG.  ``PRODUCT[kind]`` is the production one of them;
the fold is the oracle of the others.

Every element is one :class:`Element`, and each public product and
invariant of ``typea`` and ``isotropic`` is one call into a checked entry
here: :func:`product` (with the fold cross-check), :func:`invariant`,
:func:`quantum_pieri` or :func:`folded_product`.  A caller's input is
checked once, by the public function called, and each kind of input by
one function: a class by :meth:`Space.check` (``combinat.in_box`` on
G(m, N), ``combinat.in_strict`` on LG and OG), a term (nu, d, c) of an
element by :class:`Element`'s constructor (the one reader of the command
line's cached results too; :meth:`Element.coefficient` checks d as it
does), and a degree of boundary strings by ``combinat.string_degree``.
Engine code calls only trusted forms on what it built or checked, such
as :func:`gw` and the routes in ``ROUTES``, and only drops zero
coefficients.  :meth:`Space.in_degree` is every route's degree rule.

Memos are unbounded ``functools.lru_cache``s, put only on functions whose
results the workloads reuse; :func:`clear_caches` empties all of them.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from importlib import import_module
from typing import Callable, NamedTuple

from .combinat import Partition, in_box, in_strict, trim

A = "A"
LG = "LG"
OG = "OG"


class ContractViolation(RuntimeError):
    """An internal identity the engine guarantees failed to hold."""


class _Factory:
    """The default of a field that starts as a fresh empty container; it
    prints as ``dataclasses`` prints such a default, so :class:`Report`
    keeps the signature it had as a dataclass."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


class Report:
    """Outcome of a batch of identity checks.

    A plain class, not a dataclass: ``dataclasses`` imports ``inspect``,
    which would add 6 to 10 ms to every command-line call.
    """

    def __init__(self, ok: bool, checked: int = 0, failures: list[str] = _FACTORY,
                 data: dict = _FACTORY):
        self.ok = ok
        self.checked = checked
        self.failures = [] if failures is _FACTORY else failures
        self.data = {} if data is _FACTORY else data

    def __eq__(self, other) -> bool:
        if type(other) is not Report:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return (f"Report(ok={self.ok!r}, checked={self.checked!r}, "
                f"failures={self.failures!r}, data={self.data!r})")


class _Rules(dict):
    """One rule (in ``ROUTES``, one table of rules) per space kind, registered
    by the module that owns the kind when it is imported.  Looking up a kind
    not yet registered imports that module first, so a caller that imported
    only this module reaches every space, and a command loads only the
    modules of the space it runs on."""

    _OWNERS = {A: ".typea", LG: ".isotropic", OG: ".isotropic"}

    def __missing__(self, kind: str) -> Callable:
        import_module(self._OWNERS[kind], __package__)
        return dict.__getitem__(self, kind)


# Each space's Pieri map (space, lam, p) -> {(nu, d): c}, Giambelli terms
# (space, lam) -> {(d, special factors): c}, product routes by name, each
# (space, lam, mu) -> {(nu, d): c}, and the production one of them.
PIERI: dict[str, Callable] = _Rules()
GIAMBELLI: dict[str, Callable] = _Rules()
ROUTES: dict[str, dict[str, Callable]] = _Rules()
PRODUCT: dict[str, Callable] = _Rules()


class Space(NamedTuple):
    """G(m, m+n) for kind A; LG(n, 2n) or OG(n+1, 2n+2), with m None."""

    kind: str
    m: int | None
    n: int

    @classmethod
    def of(cls, kind: str, m: int | None, n: int) -> Space:
        """Check caller-supplied sizes: m only for kind A, each an int (not a
        bool), none negative."""
        if kind not in (A, LG, OG) or (m is None) != (kind != A):
            raise ValueError(f"unknown flavor {kind!r} with m={m}")
        if type(n) is not int or (m is not None and type(m) is not int):
            raise ValueError(f"sizes must be ints: m={m!r}, n={n!r}")
        if n < 0 or (m is not None and m < 0):
            raise ValueError(f"negative size: m={m}, n={n}")
        return cls(kind, m, n)

    def check(self, lam) -> Partition:
        """Canonicalise a partition from a caller and check that it indexes a class."""
        return in_box(lam, self.m, self.n) if self.kind == A else in_strict(lam, self.n)

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
        elem = object.__new__(Element)
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
            if type(d) is not int or type(c) is not int or d < 0:
                raise ValueError(f"q exponent d >= 0 and coefficient c must be ints: "
                                 f"d={d!r}, c={c!r}")
            nu = space.check(nu)
            clean[(nu, d)] = clean.get((nu, d), 0) + c
        self.coeffs = {k: c for k, c in clean.items() if c != 0}

    def coefficient(self, nu, d: int = 0) -> int:
        if type(d) is not int or d < 0:
            raise ValueError(f"q exponent d must be an int >= 0: d={d!r}")
        return self.coeffs.get((self.space.check(nu), d), 0)

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
        return f"Element({self.space.label}, {self.text()})"


def quantum_pieri(space: Space, lam, p: int) -> Element:
    """Quantum product of a caller's class with the special class of index p."""
    lam = space.check(lam)
    if type(p) is not int or not 1 <= p <= space.n:
        raise ValueError(f"p={p!r} must be an int in 1..{space.n}")
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


def product(space: Space, lam, mu, cross_check: bool = False) -> Element:
    """Production product of a caller's classes; ``cross_check`` recomputes it
    by the Giambelli fold of mu into lam and raises on a disagreement."""
    lam, mu = space.check(lam), space.check(mu)
    result = space.element(PRODUCT[space.kind](space, lam, mu))
    if cross_check:
        other = space.element(giambelli_fold(space, lam, mu))
        if result != other:
            raise ContractViolation(
                f"{space.kind} product routes disagree for {lam} * {mu} at n={space.n}: "
                f"{result.text()} vs {other.text()}")
    return result


def invariant(space: Space, lam, mu, nu, d: int) -> int:
    """:func:`gw` of a caller's classes and degree."""
    if type(d) is not int:
        raise ValueError(f"degree d must be an int: d={d!r}")
    return gw(space, space.check(lam), space.check(mu), space.check(nu), d)


def gw(space: Space, lam: Partition, mu: Partition, nu: Partition, d: int,
       route: Callable | None = None) -> int:
    """Degree-d invariant of admissible classes: the coefficient of q^d s[dual nu]
    in ``route(space, lam, mu)``, by default the space's ``PRODUCT``."""
    if not space.in_degree(d, lam, mu, nu):
        return 0
    route = route or PRODUCT[space.kind]
    return route(space, lam, mu).get((space.dual(nu), d), 0)


def clear_caches():
    """Empty every in-process memo: each ``lru_cache`` bound in a loaded
    ``qschubert`` module."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.partition(".")[0] == "qschubert":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
