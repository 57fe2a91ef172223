"""Exhaustive counting of triangular puzzle tilings.

A puzzle of size N is a tiling of an upward triangle, cut into N^2 unit
triangles, by a fixed set of labelled pieces; adjacent pieces must agree
on their shared edge.  Counting tilings with prescribed boundary labels
computes Schubert structure constants: the 1-step pieces (over {0,1})
compute classical Littlewood-Richardson numbers, the 2-step pieces (over
{0,1,2}) compute triple intersections on two-step flag varieties.

Boundary convention (clockwise reading): the north-west side is read
from the bottom-left corner up to the apex, the north-east side from the
apex down to the bottom-right corner, and the south side from the
bottom-right corner back to the bottom-left corner.

Internally every multi-triangle piece is cut into unit triangles whose
shared edges carry auxiliary glue labels that never appear on the
boundary.  For the 1-step set the single rhombus contributes glue 'x';
for the 2-step set the three unit rhombi contribute glues 'a', 'b', 'c'
(for the label pairs 1/0, 2/0, 2/1) and the two stretchable pieces
contribute glues 'd' and 'e'.  An upward triangle is stored as
(left, right, bottom) and a downward one as (top, left, right); each
table is closed under 120-degree rotation, and no reflected piece is
present.  The tables are pinned by the golden counts in the test suite,
which also checks the counts against the independent Pieri-based route.

Counting fills the rows from the apex down with the south side free, so
one pass (:func:`south_counts`) counts every south word; glue labels can
reach that side, and words holding one are dropped.  Only the row
fillings are memoised, not the counts.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import ring
from .combinat import ALPHABET_01, ALPHABET_012, LabelString

_UP_PATTERNS_1 = [
    ("0", "0", "0"),
    ("1", "1", "1"),
    ("1", "0", "x"),
    ("0", "x", "1"),
    ("x", "1", "0"),
]

_DOWN_PATTERNS_1 = [
    ("0", "0", "0"),
    ("1", "1", "1"),
    ("x", "0", "1"),
    ("1", "x", "0"),
    ("0", "1", "x"),
]


def _rhombus_patterns(big: str, small: str, glue: str):
    """Unit-triangle halves of the rhombus carrying ``big`` over ``small``.

    In the vertical position the two '/'-edges carry ``big`` and the two
    '\\'-edges carry ``small``; the other two positions are its rotations.
    """
    ups = [(big, small, glue), (small, glue, big), (glue, big, small)]
    downs = [(glue, small, big), (big, glue, small), (small, big, glue)]
    return ups, downs


def _build_2step():
    ups = [("0", "0", "0"), ("1", "1", "1"), ("2", "2", "2")]
    downs = [("0", "0", "0"), ("1", "1", "1"), ("2", "2", "2")]
    for big, small, glue in [("1", "0", "a"), ("2", "0", "b"), ("2", "1", "c"),
                             ("2", "a", "d"), ("c", "0", "e")]:
        u, d = _rhombus_patterns(big, small, glue)
        ups += u
        downs += d
    return ups, downs

_UP_PATTERNS_2, _DOWN_PATTERNS_2 = _build_2step()


def _index(ups, downs):
    by_left = defaultdict(tuple)
    right_of = {}
    for left, right, bottom in ups:
        by_left[left] += ((right, bottom),)
        if (left, bottom) in right_of:
            raise AssertionError(f"ambiguous upward piece at {(left, bottom)}")
        right_of[(left, bottom)] = right
    by_top_left = {}
    for top, left, right in downs:
        key = (top, left)
        if key in by_top_left:
            raise AssertionError(f"ambiguous downward piece at {key}")
        by_top_left[key] = right
    return dict(by_left), by_top_left, right_of

_TABLES = {
    "1step": _index(_UP_PATTERNS_1, _DOWN_PATTERNS_1),
    "2step": _index(_UP_PATTERNS_2, _DOWN_PATTERNS_2),
}
_ALPHABETS = {"1step": ALPHABET_01, "2step": ALPHABET_012}


@lru_cache(maxsize=None)
def _row_fillings(kind, top, left0, right_req):
    """All ways to fill one row given the bottom labels of the row above.

    ``top`` has r-1 labels for a row of r upward triangles; the row's
    outer NW edge is ``left0`` and its outer NE edge must be
    ``right_req``.  Returns the tuple of possible bottom-label rows.
    """
    ups, downs, _ = _TABLES[kind]
    r = len(top) + 1
    out = []

    def rec(j, left, acc):
        for right, bottom in ups.get(left, ()):
            if j == r - 1:
                if right == right_req:
                    out.append(acc + (bottom,))
            else:
                nxt = downs.get((top[j], right))
                if nxt is not None:
                    rec(j + 1, nxt, acc + (bottom,))

    rec(0, left0, ())
    return tuple(out)


def south_counts(nw: str, ne: str, kind: str) -> dict[str, int]:
    """Puzzle counts of a kind on engine-built NW and NE sides, unchecked, per south word."""
    frontiers = {(): 1}
    # row r, top row first, has outer NW edge nw[-r] and outer NE edge ne[r - 1]
    for left0, right_req in zip(reversed(nw), ne):
        new: dict[tuple, int] = defaultdict(int)
        for top, cnt in frontiers.items():
            for bottoms in _row_fillings(kind, top, left0, right_req):
                new[bottoms] += cnt
        frontiers = new
    alphabet = set(_ALPHABETS[kind])
    return {"".join(reversed(bottoms)): cnt for bottoms, cnt in frontiers.items()
            if alphabet.issuperset(bottoms)}


def count(nw: str, ne: str, s: str, kind: str) -> int:
    """Number of puzzles of a kind with a boundary the engine built, unchecked."""
    return south_counts(nw, ne, kind).get(s, 0)


def _as_text(s, alphabet: str) -> str:
    if isinstance(s, LabelString):
        if s.alphabet != alphabet:
            raise ValueError(f"expected alphabet {alphabet!r}, got {s.alphabet!r}")
        return s.symbols
    text = str(s)
    if set(text) - set(alphabet):
        raise ValueError(f"{text!r} is not a string over {alphabet!r}")
    return text


def _boundary(nw, ne, s, kind: str) -> tuple[str, str, str]:
    """Check a caller's boundary: the kind's alphabet, equal lengths, and
    for 2-step puzzles equal symbol multiplicities on the three sides."""
    if kind not in _ALPHABETS:
        raise ValueError(f"unknown puzzle kind {kind!r}")
    alphabet = _ALPHABETS[kind]
    a, b, c = (_as_text(x, alphabet) for x in (nw, ne, s))
    if not (len(a) == len(b) == len(c)):
        raise ValueError("boundary strings must have equal length")
    if kind == "2step":
        for symbol in alphabet:
            if not (a.count(symbol) == b.count(symbol) == c.count(symbol)):
                raise ValueError(f"sides disagree on the multiplicity of {symbol!r}")
    return a, b, c


def count_puzzles_1step(nw, ne, s) -> int:
    """Number of 1-step puzzles with the given clockwise boundary 01-strings."""
    return count(*_boundary(nw, ne, s, "1step"), "1step")


def count_puzzles_2step(nw, ne, s) -> int:
    """Number of 2-step puzzles with the given clockwise boundary 012-strings."""
    return count(*_boundary(nw, ne, s, "2step"), "2step")


def dump_fillings(nw, ne, s, kind="1step"):
    """Plain-text cell dump of complete fillings, for debugging.

    Returns one list of row strings per filling, each row listing its
    upward triangles as left/right/bottom label triples.
    """
    nw, ne, s = _boundary(nw, ne, s, kind)
    _, downs, right_of = _TABLES[kind]
    rows = list(zip(reversed(nw), ne))
    target = tuple(reversed(s))
    results = []

    def walk(i, top, dumped):
        if i == len(rows):
            if top == target:
                results.append(dumped)
            return
        left0, right_req = rows[i]
        for bottoms in _row_fillings(kind, top, left0, right_req):
            cells = []
            left = left0
            for j, bottom in enumerate(bottoms):
                right = right_of[(left, bottom)]
                cells.append(f"{left}{right}{bottom}")
                if j < len(top):
                    left = downs[(top[j], right)]
            walk(i + 1, bottoms, dumped + [" ".join(cells)])

    walk(0, (), [])
    return results


clear_caches = ring.clear_caches
