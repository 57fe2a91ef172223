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
one walk counts every south word.  The frontier after r rows depends only
on the NW word and the first r NE labels, so :func:`counts_by_ne`, the
only walk, takes one NW word and many NE words in one depth-first walk
over their sorted prefixes; :func:`count` and :func:`south_counts` walk
one NE word.
A label is a 4-bit code and a row one int, cell j at bits 4j.  The only
memo, :func:`_row_fillings`, holds each row's packed fillings under one int
key: a row is the pieces of its first cell, read off two transition tables
per piece set, each joined to the memoised fillings of the rest of the
row, so rows that end alike share one entry for their common end.  Glue
labels can reach the free south side, and :func:`south_counts` drops the
words holding one.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import ring
from .combinat import ALPHABET_01, ALPHABET_012, LabelString

_UP_PATTERNS_1 = [tuple(piece) for piece in "000 111 10x 0x1 x10".split()]
_DOWN_PATTERNS_1 = [tuple(piece) for piece in "000 111 x01 1x0 01x".split()]


def _build_2step():
    """The three one-label triangles, then the unit-triangle halves of five
    rhombi: in the vertical position the two '/'-edges carry ``big``, the
    two '\\'-edges ``small`` and the cut ``glue``; the other two positions
    are its rotations."""
    ups = [("0", "0", "0"), ("1", "1", "1"), ("2", "2", "2")]
    downs = list(ups)
    for big, small, glue in ("10a", "20b", "21c", "2ad", "c0e"):
        ups += [(big, small, glue), (small, glue, big), (glue, big, small)]
        downs += [(glue, small, big), (big, glue, small), (small, big, glue)]
    return ups, downs

_UP_PATTERNS_2, _DOWN_PATTERNS_2 = _build_2step()


# a label's 4-bit code is one hex digit; the glue labels, which never reach
# the boundary, have bit 3 set, so one mask finds a packed word holding one
_LABELS, _DIGITS = "012xabcde", "01289abcd"
_CODE = {label: int(digit, 16) for label, digit in zip(_LABELS, _DIGITS)}
_TO_HEX, _FROM_HEX = str.maketrans(_LABELS, _DIGITS), str.maketrans(_DIGITS, _LABELS)


def _index(ups, downs):
    """Piece lookups and the two transition tables of a piece set, in the
    order of ``ups``: ``inner[t << 4 | left]`` lists (bottom, next left) of an
    upward piece on edge ``left`` and the downward piece after it under top
    label ``t``; ``last[left << 4 | right]`` lists the bottoms closing a row."""
    by_top_left = {(top, left): right for top, left, right in downs}
    right_of = {(left, bottom): right for left, right, bottom in ups}
    if len(by_top_left) < len(downs) or len(right_of) < len(ups):
        raise AssertionError("two edges do not fix every piece")
    inner, last = [()] * 256, [()] * 256
    for left, right, bottom in ups:
        last[_CODE[left] << 4 | _CODE[right]] += (_CODE[bottom],)
        for (top, down_left), nxt in by_top_left.items():
            if down_left == right:
                inner[_CODE[top] << 4 | _CODE[left]] += ((_CODE[bottom], _CODE[nxt]),)
    return by_top_left, right_of, tuple(inner), tuple(last)

_TABLES = {"1step": _index(_UP_PATTERNS_1, _DOWN_PATTERNS_1),
           "2step": _index(_UP_PATTERNS_2, _DOWN_PATTERNS_2)}
_ALPHABETS = {"1step": ALPHABET_01, "2step": ALPHABET_012}


def pack(word: str) -> int:
    """A word as one int, its last label in the lowest 4 bits."""
    return int("0" + word.translate(_TO_HEX), 16)


def _unpack(row: int, width: int) -> str:
    # the 1 above the top cell keeps its leading zero labels
    return format(row | 1 << 4 * width, "x")[1:].translate(_FROM_HEX)


_KINDS = ("1step", "2step")  # bit 0 of a row key names the piece set
_DEPTH = 128  # the widest row filled by recursion alone


def _row_key(kind: str, top: int, width: int, left0: int, right_req: int) -> int:
    """The :func:`_row_fillings` key of a row of ``width`` cells of a kind
    under the packed row ``top``: a 1 above its width - 1 labels (as in
    :func:`_unpack`), then the outer NW edge, the outer NE edge and the kind."""
    return (top | 1 << 4 * width - 4) << 9 | left0 << 5 | right_req << 1 | _KINDS.index(kind)


@lru_cache(maxsize=None)
def _row_fillings(key):
    """All packed bottom rows (cell j at bits 4j) of the row with key
    ``key`` (:func:`_row_key`), in the order of the piece tables, cell 0
    outermost.

    A row of one cell is a ``last`` entry.  A wider row is the pieces of
    its first cell, each joined to the fillings of the other cells: the
    row under the top shifted by one label, from that piece's next left
    edge, with the same NE edge and kind.  Rows that end alike thus share
    one entry for their common end.  A row wider than ``_DEPTH`` cells
    fills all but its last ``_DEPTH`` cells in one loop, which bounds the
    recursion.
    """
    _, _, inner, last = _TABLES[_KINDS[key & 1]]
    # top: the top labels under their 1; end: the NE edge and the kind
    top, left0, end = key >> 9, key >> 5 & 15, key & 31
    if top == 1:
        return last[left0 << 4 | end >> 1]
    if not top >> 4 * _DEPTH:
        rest = top >> 4 << 9 | end
        return tuple([bottom | row << 4 for bottom, nxt in inner[(top & 15) << 4 | left0]
                      for row in _row_fillings(rest | nxt << 5)])
    cut = (top.bit_length() - 1) // 4 - _DEPTH + 1  # cells filled by the loop
    partial = [(0, left0)]
    for shift in range(0, 4 * cut, 4):
        t = (top >> shift & 15) << 4
        partial = [(row | bottom << shift, nxt) for row, left in partial
                   for bottom, nxt in inner[t | left]]
    rest = top >> 4 * cut << 9 | end
    return tuple([row | tail << 4 * cut for row, left in partial
                  for tail in _row_fillings(rest | left << 5)])


def counts_by_ne(nw: str, nes, kind: str) -> dict[str, dict[int, int]]:
    """Puzzle counts of a kind on one engine-built NW side and each
    engine-built NE side in ``nes``, unchecked: for every distinct NE word,
    its counts per packed south word (:func:`pack`), glue words included.

    The frontier after r rows depends only on the NW word and the first r NE
    labels, so one depth-first walk over the sorted words keeps a stack of
    one frontier per row: each word resumes from the deepest frontier it
    shares with the word before it, and stops at an empty frontier.
    """
    lefts = [_CODE[label] << 5 for label in reversed(nw)]
    size, prev, step = len(nw), "", _KINDS.index(kind)
    stack: list[dict[int, int]] = [{0: 1}]  # stack[r]: the frontier after r rows of prev
    out = {}
    for ne in sorted(set(nes)):
        r, depth = 0, len(stack) - 1
        while r < depth and ne[r] == prev[r]:
            r += 1
        del stack[r + 1:]
        frontier = stack[r]
        # row r + 1, top row first, has outer NW edge nw[-r - 1] and outer NE
        # edge ne[r]; its key is top << 9 | edges (see _row_key)
        while frontier and r < size:
            edges = 1 << 4 * r + 9 | lefts[r] | _CODE[ne[r]] << 1 | step
            r += 1
            if len(frontier) == 1:
                # one row's bottoms are distinct: two edges fix each piece
                (top, cnt), = frontier.items()
                frontier = dict.fromkeys(_row_fillings(top << 9 | edges), cnt)
            else:
                new: dict[int, int] = defaultdict(int)
                for top, cnt in frontier.items():
                    for row in _row_fillings(top << 9 | edges):
                        new[row] += cnt
                frontier = new
            stack.append(frontier)
        out[ne], prev = frontier, ne
    return out


def south_counts(nw: str, ne: str, kind: str) -> dict[str, int]:
    """Puzzle counts of a kind on engine-built NW and NE sides, unchecked, per south word."""
    glue = int("0" + "8" * len(nw), 16)
    return {_unpack(row, len(nw)): cnt
            for row, cnt in counts_by_ne(nw, (ne,), kind)[ne].items() if not row & glue}


def count(nw: str, ne: str, s: str, kind: str) -> int:
    """Number of puzzles of a kind with a boundary the engine built, unchecked."""
    return counts_by_ne(nw, (ne,), kind)[ne].get(pack(s), 0)


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
    downs, right_of, _, _ = _TABLES[kind]
    target = pack(s)
    results = []

    def walk(width, top, dumped):
        if width > len(nw):
            if top == target:
                results.append(dumped)
            return
        left0, right_req = nw[-width], ne[width - 1]
        tops = _unpack(top, width - 1)[::-1]
        for row in _row_fillings(_row_key(kind, top, width, _CODE[left0], _CODE[right_req])):
            cells, left = [], left0
            for j, bottom in enumerate(_unpack(row, width)[::-1]):
                right = right_of[(left, bottom)]
                cells.append(f"{left}{right}{bottom}")
                if j < len(tops):
                    left = downs[(tops[j], right)]
            walk(width + 1, row, dumped + [" ".join(cells)])

    walk(1, 0, [])
    return results


clear_caches = ring.clear_caches
