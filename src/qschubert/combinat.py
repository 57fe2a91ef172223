"""Partitions, boundary label strings, and Grassmannian permutations.

Conventions used throughout the package:

* partitions are tuples of weakly decreasing positive integers with
  trailing zeros stripped (canonical form), so ``(2, 1, 0)`` is stored
  as ``(2, 1)``;
* rows, columns and string positions are 1-indexed in the public API;
* a 01-string records the lattice path cut out by a partition inside an
  m x n rectangle, read from the lower-left to the upper-right corner,
  with vertical steps labelled '0' and horizontal steps labelled '1'.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

Partition = tuple[int, ...]

ALPHABET_01 = "01"
ALPHABET_012 = "012"


def partition(parts) -> Partition:
    """Canonicalize an iterable of int row lengths (not bools) into a partition tuple."""
    p = tuple(parts)
    if any(type(x) is not int for x in p):
        raise ValueError(f"parts must be ints: {p!r}")
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing: {p}")
    return trim(p)


def trim(parts: tuple[int, ...]) -> Partition:
    """Strip the trailing zeros of a weakly decreasing tuple of nonnegative
    parts; the engine's own partitions need no further checks."""
    end = len(parts)
    while end and not parts[end - 1]:
        end -= 1
    return parts[:end]


def is_strict(lam: Partition) -> bool:
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))


def contains(inner: Partition, outer: Partition) -> bool:
    """True if the diagram of ``inner`` fits inside the diagram of ``outer``."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def fits_in_box(lam: Partition, m: int, n: int) -> bool:
    return len(lam) <= m and (not lam or lam[0] <= n)


def in_box(lam, m: int, n: int) -> Partition:
    """Canonicalise a caller's partition and check that it fits in m x n."""
    lam = partition(lam)
    if not fits_in_box(lam, m, n):
        raise ValueError(f"{lam} does not fit in a {m}x{n} rectangle")
    return lam


def in_strict(lam, n: int) -> Partition:
    """Canonicalise a caller's strict partition: int parts (not bools), strictly
    decreasing, each in 1..n once trailing zeros are stripped."""
    lam = tuple(lam)
    if all(type(x) is int for x in lam):
        lam = trim(lam)
        if is_strict(lam) and (not lam or 0 < lam[-1] <= lam[0] <= n):
            return lam
    raise ValueError(f"{lam} is not a strict partition bounded by {n}")


def sizes(**named) -> None:
    """Check a caller's sizes and indices, by name: ints (not bools), each >= 0."""
    for name, value in named.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be an int >= 0 (ints, not bools): {name}={value!r}")


def string_degree(d, m: int, n: int) -> int:
    """Check a caller's degree of boundary strings on the m x n rectangle:
    an int (not a bool) with 0 <= d <= min(m, n)."""
    if type(d) is not int or not 0 <= d <= min(m, n):
        raise ValueError(f"d={d!r} out of range for a {m}x{n} rectangle")
    return d


def conjugate(lam) -> Partition:
    """Transpose the Young diagram."""
    lam = partition(lam)
    return tuple(sum(1 for r in lam if r > c) for c in range(lam[0] if lam else 0))


def rect_dual(lam: Partition, m: int, n: int) -> Partition:
    """Complement of ``lam`` in the m x n rectangle, rotated 180 degrees."""
    sizes(m=m, n=n)
    padded = in_box(lam, m, n) + (0,) * m
    return trim(tuple(n - padded[m - 1 - i] for i in range(m)))


def strict_dual(nu, n: int) -> Partition:
    """Complement of the parts of a strict partition in {1, ..., n}."""
    sizes(n=n)
    missing = set(range(1, n + 1)) - set(in_strict(nu, n))
    return tuple(sorted(missing, reverse=True))


def remove_columns(lam, d: int) -> Partition:
    """Remove the leftmost ``d`` columns: each part drops by d, floored at 0."""
    sizes(d=d)
    return trim(tuple(max(x - d, 0) for x in partition(lam)))


def hat_map(lam, n: int) -> Partition:
    """Send a nonzero strict partition bounded by n to (n - last, ..., n - first).

    The image lies in the strict partitions bounded by n - 1; a zero part
    (arising when the first part equals n) is dropped.
    """
    sizes(n=n)
    lam = in_strict(lam, n)
    if not lam:
        raise ValueError("hat_map requires a nonzero partition")
    return trim(tuple(n - x for x in reversed(lam)))


class LabelString:
    """A boundary word over {0,1} or {0,1,2}, tagged with its alphabet.

    Immutable, compared and hashed by its two fields.  A plain class, not a
    dataclass: ``dataclasses`` imports ``inspect``, which would add 6 to
    10 ms to every command-line call.
    """

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: str, alphabet: str):
        if alphabet not in (ALPHABET_01, ALPHABET_012):
            raise ValueError(f"unknown alphabet {alphabet!r}")
        bad = set(symbols) - set(alphabet)
        if bad:
            raise ValueError(f"symbols {sorted(bad)} outside alphabet {alphabet!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet", alphabet)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not LabelString:
            return NotImplemented
        return (self.symbols, self.alphabet) == (other.symbols, other.alphabet)

    def __hash__(self) -> int:
        return hash((self.symbols, self.alphabet))

    def __repr__(self) -> str:
        return f"LabelString(symbols={self.symbols!r}, alphabet={self.alphabet!r})"

    def __str__(self) -> str:
        return self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def count(self, symbol: str) -> int:
        return self.symbols.count(symbol)


def to_01_string(lam: Partition, m: int, n: int) -> LabelString:
    """Encode a partition in the m x n rectangle as its boundary 01-string.

    The '0's sit at positions i + lam[m+1-i] for i = 1..m (1-indexed).
    """
    sizes(m=m, n=n)
    return LabelString(word_01(in_box(lam, m, n), m, n), ALPHABET_01)


def word_01(lam: Partition, m: int, n: int) -> str:
    """The symbols of :func:`to_01_string` for a partition already in the box."""
    padded = lam + (0,) * (m - len(lam))
    chars = ["1"] * (m + n)
    for i in range(1, m + 1):
        chars[i + padded[m - i] - 1] = "0"
    return "".join(chars)


def from_01_string(s, m: int | None = None) -> tuple[Partition, int, int]:
    """Inverse of :func:`to_01_string`; returns (partition, m, n)."""
    if m is not None:
        sizes(m=m)
    text = s.symbols if isinstance(s, LabelString) else str(s)
    if set(text) - set(ALPHABET_01):
        raise ValueError(f"not a 01-string: {text!r}")
    zeros = [i + 1 for i, c in enumerate(text) if c == "0"]
    if m is not None and len(zeros) != m:
        raise ValueError(f"expected {m} zeros, found {len(zeros)} in {text!r}")
    m_found = len(zeros)
    n = len(text) - m_found
    lam = partition(reversed([p - i for i, p in enumerate(zeros, start=1)]))
    return lam, m_found, n


def grassmann_permutation(lam: Partition, m: int, n: int) -> tuple[int, ...]:
    """The minimal coset representative whose 0/1 positions encode ``lam``."""
    return string012_to_permutation(to_01_string(lam, m, n), m, m + n)


def jd_string(lam: Partition, m: int, n: int, d: int) -> LabelString:
    """Boundary 012-string of the degree-d auxiliary Schubert variety.

    Double every label of the 01-string, then turn the first d '2's and
    the last d '0's into '1's.  The result has m-d zeros and 2d ones.
    """
    sizes(m=m, n=n)
    d = string_degree(d, m, n)
    return LabelString(word_jd(in_box(lam, m, n), m, n, d), ALPHABET_012)


def word_jd(lam: Partition, m: int, n: int, d: int) -> str:
    """The symbols of :func:`jd_string` for lam in the box and 0 <= d <= min(m, n)."""
    doubled = ["2" if c == "1" else "0" for c in word_01(lam, m, n)]
    twos = [i for i, c in enumerate(doubled) if c == "2"]
    zeros = [i for i, c in enumerate(doubled) if c == "0"]
    for i in twos[:d]:
        doubled[i] = "1"
    for i in zeros[len(zeros) - d:]:
        doubled[i] = "1"
    return "".join(doubled)


def string012_to_permutation(s, a: int, b: int) -> tuple[int, ...]:
    """Permutation whose first a, next b-a, and last entries are the sorted
    positions of '0', '1', '2' in the string."""
    sizes(a=a, b=b)
    text = s.symbols if isinstance(s, LabelString) else str(s)
    if set(text) - set(ALPHABET_012):
        raise ValueError(f"not a 012-string: {text!r}")
    zeros = [i + 1 for i, c in enumerate(text) if c == "0"]
    ones = [i + 1 for i, c in enumerate(text) if c == "1"]
    twos = [i + 1 for i, c in enumerate(text) if c == "2"]
    if len(zeros) != a or len(ones) != b - a:
        raise ValueError(
            f"symbol counts ({len(zeros)}, {len(ones)}) do not match (a, b-a)=({a}, {b - a})"
        )
    return tuple(zeros + ones + twos)


def permutation_length(w: tuple[int, ...]) -> int:
    """Number of inversions."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def skew_component_stats(lam: Partition, mu: Partition) -> tuple[int, int]:
    """(connected components of mu/lam, components not meeting column 1).

    Two cells are connected when they share an edge or a vertex.
    """
    lam, mu = partition(lam), partition(mu)
    if not contains(lam, mu):
        raise ValueError(f"{lam} is not contained in {mu}")
    return _components(lam, mu)


def _components(lam: Partition, mu: Partition) -> tuple[int, int]:
    """:func:`skew_component_stats` of canonical lam inside mu, row by row.

    Each row of mu/lam is one run of cells.  A nonempty row i+1 joins the
    component above exactly when row i is nonempty and mu_(i+1) >= lam_i,
    so that the two runs share an edge or a corner.  The rows that meet
    column 1 are the rows below lam, and they form one component.
    """
    comps, above = 0, None  # above: lam_i when row i is nonempty
    for lo, hi in zip(lam + (0,) * (len(mu) - len(lam)), mu):
        if lo < hi:
            comps += above is None or hi < above
            above = lo
        else:
            above = None
    return comps, comps - (len(mu) > len(lam))


# ---------------------------------------------------------------------------
# enumeration helpers


def partitions_in_box(m: int, n: int):
    """All partitions fitting in an m x n rectangle, by nondecreasing weight."""
    return sorted((trim(p[::-1]) for p in combinations_with_replacement(range(n + 1), m)),
                  key=lambda p: (sum(p), p))


def strict_partitions_max(n: int) -> list[Partition]:
    """All strict partitions with parts at most n (including the empty one)."""
    return sorted((p[::-1] for k in range(n + 1) for p in combinations(range(1, n + 1), k)),
                  key=lambda p: (sum(p), p))


def partitions_with_parts_at_most(w: int, maxpart: int) -> list[Partition]:
    """All partitions of weight w whose parts are at most maxpart."""
    out = []
    def rec(prefix, remaining, bound):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(min(bound, remaining), 0, -1):
            rec(prefix + (first,), remaining - first, first)
    rec((), w, maxpart)
    return out


def _bounded_rows(low: tuple[int, ...], high: tuple[int, ...], excess: int):
    """Partitions nu with low[i] <= nu[i] <= high[i] in every row and
    |nu| = |low| + excess, for bounds under which every such row vector
    is weakly decreasing."""
    out = []
    def rec(i, acc, left, room):  # room: most boxes rows i.. can take above low
        if i == len(low):
            out.append(trim(acc))
            return
        span = high[i] - low[i]
        for extra in range(max(0, left - room + span), min(span, left) + 1):
            rec(i + 1, acc + (low[i] + extra,), left - extra, room - span)
    room = sum(high) - sum(low)
    if 0 <= excess <= room:
        rec(0, (), excess, room)
    return out


def horizontal_strip_additions(lam: Partition, p: int, max_part: int,
                               max_rows: int | None = None):
    """Partitions mu obtained from a canonical partition lam by adding p
    boxes, no two per column.

    ``max_part`` bounds mu_1; ``max_rows`` bounds the number of rows.
    """
    rows = len(lam) + 1 if max_rows is None else min(len(lam) + 1, max_rows)
    return _bounded_rows((lam + (0,))[:rows], ((max_part,) + lam)[:rows], p)


def horizontal_strip_removals(lam: Partition, p: int):
    """Partitions nu obtained from a canonical partition lam by removing p
    boxes, no two per column."""
    low = (lam + (0,))[1:]
    return _bounded_rows(low, lam, sum(lam) - sum(low) - p)
