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

from dataclasses import dataclass

Partition = tuple[int, ...]

ALPHABET_01 = "01"
ALPHABET_012 = "012"


def partition(parts) -> Partition:
    """Canonicalize an iterable of row lengths into a partition tuple."""
    p = tuple(int(x) for x in parts)
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


def weight(lam: Partition) -> int:
    return sum(lam)


def length(lam: Partition) -> int:
    return len(lam)


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


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for r in lam if r > c) for c in range(lam[0]))


def rect_dual(lam: Partition, m: int, n: int) -> Partition:
    """Complement of ``lam`` in the m x n rectangle, rotated 180 degrees."""
    padded = in_box(lam, m, n) + (0,) * m
    return trim(tuple(n - padded[m - 1 - i] for i in range(m)))


def strict_dual(nu: Partition, n: int) -> Partition:
    """Complement of the parts of a strict partition in {1, ..., n}."""
    nu = partition(nu)
    if not is_strict(nu):
        raise ValueError(f"{nu} is not strict")
    if nu and nu[0] > n:
        raise ValueError(f"largest part of {nu} exceeds {n}")
    missing = set(range(1, n + 1)) - set(nu)
    return tuple(sorted(missing, reverse=True))


def remove_columns(lam: Partition, d: int) -> Partition:
    """Remove the leftmost ``d`` columns: each part drops by d, floored at 0."""
    return partition(max(x - d, 0) for x in lam)


def hat_map(lam: Partition, n: int) -> Partition:
    """Send a nonzero strict partition bounded by n to (n - last, ..., n - first).

    The image lies in the strict partitions bounded by n - 1; a zero part
    (arising when the first part equals n) is dropped.
    """
    lam = partition(lam)
    if not lam:
        raise ValueError("hat_map requires a nonzero partition")
    if not is_strict(lam):
        raise ValueError(f"{lam} is not strict")
    if lam[0] > n:
        raise ValueError(f"largest part of {lam} exceeds {n}")
    return partition(n - x for x in reversed(lam))


@dataclass(frozen=True)
class LabelString:
    """A boundary word over {0,1} or {0,1,2}, tagged with its alphabet."""

    symbols: str
    alphabet: str

    def __post_init__(self):
        if self.alphabet not in (ALPHABET_01, ALPHABET_012):
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        bad = set(self.symbols) - set(self.alphabet)
        if bad:
            raise ValueError(f"symbols {sorted(bad)} outside alphabet {self.alphabet!r}")

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
    s = to_01_string(lam, m, n).symbols
    zeros = [i + 1 for i, c in enumerate(s) if c == "0"]
    ones = [i + 1 for i, c in enumerate(s) if c == "1"]
    return tuple(zeros + ones)


def jd_string(lam: Partition, m: int, n: int, d: int) -> LabelString:
    """Boundary 012-string of the degree-d auxiliary Schubert variety.

    Double every label of the 01-string, then turn the first d '2's and
    the last d '0's into '1's.  The result has m-d zeros and 2d ones.
    """
    if d < 0 or d > min(m, n):
        raise ValueError(f"d={d} out of range for a {m}x{n} rectangle")
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


def skew_cells(lam: Partition, mu: Partition) -> list[tuple[int, int]]:
    """Cells of mu/lam as 1-indexed (row, column) pairs; requires lam inside mu."""
    lam = partition(lam)
    mu = partition(mu)
    if not contains(lam, mu):
        raise ValueError(f"{lam} is not contained in {mu}")
    padded = lam + (0,) * (len(mu) - len(lam))
    return [(i + 1, j + 1) for i in range(len(mu)) for j in range(padded[i], mu[i])]


def _component_count(cells) -> tuple[int, int]:
    """Components of a cell set under vertex-or-edge adjacency, plus how many
    avoid column 1."""
    todo = set(cells)
    components = off_first = 0
    while todo:
        components += 1
        stack = [todo.pop()]
        meets_first = False
        while stack:
            i, j = stack.pop()
            if j == 1:
                meets_first = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nb = (i + di, j + dj)
                    if nb in todo:
                        todo.remove(nb)
                        stack.append(nb)
        if not meets_first:
            off_first += 1
    return components, off_first


def skew_component_stats(lam: Partition, mu: Partition) -> tuple[int, int]:
    """(connected components of mu/lam, components not meeting column 1).

    Two cells are connected when they share an edge or a vertex.
    """
    return _component_count(skew_cells(lam, mu))


# ---------------------------------------------------------------------------
# enumeration helpers


def partitions_in_box(m: int, n: int):
    """All partitions fitting in an m x n rectangle, by nondecreasing weight."""
    out = [()]
    def rec(prefix, row_bound):
        for first in range(1, row_bound + 1):
            cand = prefix + (first,)
            if len(cand) <= m:
                out.append(cand)
                rec(cand, first)
    rec((), n)
    out.sort(key=lambda p: (sum(p), p))
    return out


def strict_partitions_max(n: int) -> list[Partition]:
    """All strict partitions with parts at most n (including the empty one)."""
    out = []
    def rec(prefix, bound):
        out.append(prefix)
        for first in range(bound, 0, -1):
            rec(prefix + (first,), first - 1)
    rec((), n)
    out.sort(key=lambda p: (sum(p), p))
    return out


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
