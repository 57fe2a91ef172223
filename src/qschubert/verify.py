"""Batch verification suites.

Each suite runs one family of cross-checks between independent routes of
the engine (ring presentations, puzzle counting versus Pieri folding,
the orthogonal/Lagrangian duality, line numbers, properties of the
Pfaffian-polynomial basis, and symmetry of the invariants) over an
exhaustive grid bounded by the given size limits.  Graded triples, on
G(m, N), LG or OG, come from one walk (:func:`_graded`), and every S3
check is :func:`_check_s3`; the duality suite and the 1-step puzzle
board keep their whole grids, because their zeros are checks too.  The
puzzle suite loops over one board per puzzle kind and degree of each
G(m, N) and makes each (lam, mu) row's checks in one comparison
(:func:`_compare_puzzles`): a class missing on both sides is a zero that
agrees.  Every suite refuses a size bound that is not an int
(:func:`_bound`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, groupby, permutations, product
from operator import itemgetter

from . import isotropic, puzzle, qpoly, ring, typea
from .combinat import (Partition, partitions_in_box, partitions_with_parts_at_most,
                       strict_partitions_max, word_01, word_jd)
from .ring import A, LG, OG, Report, Space

_MAX_FAILURES = 5
# G(m, N) up to this N also get the classical 1-step puzzle check
_MAX_CLASSICAL_N = 8


def _note(report: Report, message: str):
    report.ok = False
    if len(report.failures) < _MAX_FAILURES:
        report.failures.append(message)


def _absorb(report: Report, sub: Report):
    report.checked += sub.checked
    for f in sub.failures:
        _note(report, f)


def _bound(name: str, value):
    """Refuse a suite bound that is not an int (bools included), as
    :meth:`Space.of` refuses sizes."""
    if type(value) is not int:
        raise ValueError(f"suite bounds must be ints: {name}={value!r}")


def suite_presentations(max_N: int = 8, max_n: int = 4) -> Report:
    """Ring presentations: type A for all m+n <= max_N, LG and OG for
    n <= max_n."""
    _bound("max_N", max_N)
    _bound("max_n", max_n)
    report = Report(ok=True)
    for N in range(2, max_N + 1):
        for m in range(1, N):
            _absorb(report, typea.presentation_report_a(m, N - m))
    for n in range(1, max_n + 1):
        for flavor in (LG, OG):
            _absorb(report, isotropic.presentation_report_isotropic(flavor, n))
    return report


def _graded(space: Space, classes: list, degrees):
    """Every (d, lam, mu, nus) over the degrees and ordered pairs of classes,
    where nus, never empty, holds the classes nu of the weight that
    :meth:`Space.in_degree` asks for, dim + d * q_degree - |lam| - |mu|."""
    by_weight: dict[int, list] = {}
    for nu in classes:
        by_weight.setdefault(sum(nu), []).append(nu)
    weighed = [(lam, sum(lam)) for lam in classes]
    for d in degrees:
        top = space.dim + d * space.q_degree
        for (lam, a), (mu, b) in product(weighed, repeat=2):
            nus = by_weight.get(top - a - b)
            if nus:
                yield d, lam, mu, nus


def _check_s3(report: Report, space: Space, graded):
    """One check per graded triple: its invariant is unchanged by the five
    other orders of its classes, tried up to the first mismatch."""
    for d, lam, mu, nus in graded:
        for nu in nus:
            orders = permutations((lam, mu, nu))  # the identity first
            base = ring.gw(space, *next(orders), d)
            report.checked += 1
            if any(ring.gw(space, *triple, d) != base for triple in orders):
                _note(report, f"S3 fails on {space.label} d={d} {lam},{mu},{nu}")


def _compare_puzzles(report: Report, space: Space, board: tuple, lam: Partition,
                     rows: list, products):
    """Check every (mu, nu) of ``rows``, pairs (mu, nus), off one puzzle walk
    on a board ``(kind, d, words, duals)`` from lam's word over the words of
    the mus, against the product coeffs of each (lam, mu).

    ``duals`` maps each packed class word to the dual of its class.  A row
    whose counts at class words (glue words dropped) equal its degree-d
    coefficients, both keyed by the dual of nu, passes len(nus) checks at
    once: every nu, zeros included, has count == coefficient.  Any other row
    is read nu by nu, in order, for its failure messages.
    """
    kind, d, words, duals = board
    counts = puzzle.counts_by_ne(words[lam], [words[mu] for mu, _ in rows], kind)
    for mu, nus in rows:
        south, coeffs = counts[words[mu]], products(lam, mu)
        found = {duals[w]: c for w, c in south.items() if w in duals}
        if found == {x: c for (x, e), c in coeffs.items() if e == d}:
            report.checked += len(nus)
            continue
        for nu in nus:
            # the product is graded, so a nu of the wrong weight reads 0 there too
            got = south.get(puzzle.pack(words[nu]), 0)
            want = coeffs.get((space.dual(nu), d), 0)
            report.checked += 1
            if got != want:
                _note(report, f"{kind} {space.label} d={d} {lam},{mu},{nu}: "
                              f"puzzle {got} != {want}")


def suite_puzzle_conjecture(max_N: int = 8) -> Report:
    """Puzzle counts versus the production product.

    For every G(m, N) with N <= max_N and every degree-matching triple
    (lam, mu, nu, d), the 2-step puzzle count over the degree-d strings
    must equal the quantum-product coefficient.  For N <= _MAX_CLASSICAL_N
    the classical 1-step count is additionally compared on all ordered
    triples, including degree-mismatched ones (both sides zero).  Each
    space has one board per puzzle kind and degree, the 1-step one first.
    Each (board, lam) takes one walk, south side free, over the words of
    its mus (:func:`puzzle.counts_by_ne`), and each (lam, mu) one product,
    which every board reads.  Every nu is one check, in the order of
    (mu, nu) (:func:`_compare_puzzles`).
    """
    _bound("max_N", max_N)
    report = Report(ok=True)
    for N in range(2, max_N + 1):
        for m in range(1, N):
            n = N - m
            space = Space(A, m, n)
            products = lru_cache(maxsize=None)(partial(ring.PRODUCT[A], space))
            classes = partitions_in_box(m, n)
            boards = [("2step", d, {lam: word_jd(lam, m, n, d) for lam in classes})
                      for d in range(min(m, n) + 1)]
            if N <= _MAX_CLASSICAL_N:
                boards.insert(0, ("1step", 0, {lam: word_01(lam, m, n) for lam in classes}))
            for kind, d, words in boards:
                duals = {puzzle.pack(w): space.dual(lam) for lam, w in words.items()}
                if kind == "1step":  # every ordered triple, zeros included
                    whole = [(mu, classes) for mu in classes]
                    lams = ((lam, whole) for lam in classes)
                else:
                    lams = ((lam, [(mu, nus) for _, _, mu, nus in group]) for lam, group
                            in groupby(_graded(space, classes, (d,)), key=itemgetter(1)))
                for lam, rows in lams:
                    _compare_puzzles(report, space, (kind, d, words, duals), lam, rows, products)
    return report


def suite_duality(max_n: int = 4) -> Report:
    """OG invariants against their LG partners, including the vanishing
    clause for partitions shorter than 2d+1."""
    _bound("max_n", max_n)
    report = Report(ok=True)
    for n in range(1, max_n + 1):
        og = Space(OG, None, n)
        lams = [x for x in strict_partitions_max(n) if x]
        smalls = strict_partitions_max(n - 1)
        for lam in lams:
            for mu in smalls:
                for nu in smalls:
                    for d in range(0, n + 1):
                        _absorb(report, isotropic.duality(og, lam, mu, nu, d))
    return report


def suite_line_numbers(max_n: int = 3) -> Report:
    """Degree-one LG invariants against half the classical triple one
    size up, for every weight-matching triple."""
    _bound("max_n", max_n)
    report = Report(ok=True)
    for n in range(1, max_n + 1):
        space = Space(LG, None, n)
        for _, lam, mu, nus in _graded(space, strict_partitions_max(n), (1,)):
            for nu in nus:
                _absorb(report, isotropic.line_number(space, lam, mu, nu))
    return report


def _monomial_mul(f: dict, g: dict) -> dict:
    out: dict[tuple, int] = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _e_monomials(k: int, n: int) -> dict:
    """e_k(x_1..x_n) as a dict of exponent vectors."""
    out = {}
    for combo in combinations(range(n), k):
        expo = [0] * n
        for i in combo:
            expo[i] = 1
        out[tuple(expo)] = 1
    return out


def _epoly_monomials(f: qpoly.EPoly, n: int) -> dict:
    total: dict[tuple, int] = {}
    for key, c in f.coeffs.items():
        term = {tuple([0] * n): 1}
        for part in key:
            term = _monomial_mul(term, _e_monomials(part, n))
        for expo, v in term.items():
            total[expo] = total.get(expo, 0) + c * v
    return {k: v for k, v in total.items() if v != 0}


def suite_qtilde_properties(max_n: int = 4, max_weight: int = 12) -> Report:
    """Basis round-trip, factorization, the e_i(x^2) identity against a
    brute-force monomial expansion, Pieri versus structure constants,
    vanishing above n, Pfaffian expansion consistency, and the power-of-two
    divisibility of the quantum LG constants."""
    _bound("max_n", max_n)
    _bound("max_weight", max_weight)
    report = Report(ok=True)
    for n in range(1, max_n + 1):
        # vanishing above n
        for tail in ((), (1,), (n, 1)):
            lam = (n + 1,) + tail
            report.checked += 1
            if not qpoly._qtilde(lam, n).is_zero():
                _note(report, f"nonzero value at {lam} with n={n}")
        # e_i of squared variables
        for i in range(1, n + 1):
            got = _epoly_monomials(qpoly._qtilde((i, i), n), n)
            want = {tuple(2 * x for x in expo): c
                    for expo, c in _e_monomials(i, n).items()}
            report.checked += 1
            if got != want:
                _note(report, f"square identity fails at i={i}, n={n}")
        pool = [lam for w in range(0, max_weight + 1)
                for lam in partitions_with_parts_at_most(w, n)]
        # basis round-trip on every basis element
        for lam in pool:
            if not lam:
                continue
            report.checked += 1
            if qpoly.expand_in_qtilde(qpoly._qtilde(lam, n), n) != {lam: 1}:
                _note(report, f"round-trip fails at {lam}, n={n}")
        # Pfaffian expansions along last column and first row agree
        for lam in pool:
            if len(lam) >= 3:
                report.checked += 1
                if qpoly._qtilde(lam, n) != qpoly._pfaffian_first_row(lam, n):
                    _note(report, f"Pfaffian expansions differ at {lam}, n={n}")
        # factorization by repeated pairs
        for lam in pool:
            for i in range(1, n + 1):
                if sum(lam) + 2 * i > max_weight:
                    continue
                merged = tuple(sorted(lam + (i, i), reverse=True))
                lhs = qpoly._qtilde(merged, n)
                rhs = qpoly._qtilde(lam, n) * qpoly._qtilde((i, i), n)
                report.checked += 1
                if lhs != rhs:
                    _note(report, f"factorization fails at {lam} + ({i},{i}), n={n}")
        # Pieri rule against structure constants
        for lam in strict_partitions_max(n):
            for p in range(0, n + 1):
                if sum(lam) + p > max_weight:
                    continue
                want = qpoly._structure(lam, (p,) if p else (), n)
                report.checked += 1
                if qpoly._pieri(lam, p, n) != want:
                    _note(report, f"Pieri mismatch at {lam}, p={p}, n={n}")
        # power-of-two divisibility of quantum LG constants
        for lam in strict_partitions_max(n):
            for mu in strict_partitions_max(n):
                if sum(lam) + sum(mu) > max_weight:
                    continue
                structure = qpoly._structure(lam, mu, n + 1)
                report.checked += sum(n + 1 in key for key in structure)
                try:
                    isotropic._read_q(structure, n)
                except ring.ContractViolation as exc:
                    _note(report, f"{exc}, n={n}")
    return report


def _shift(coeffs: dict, e: int) -> dict:
    """q^e times a product {(nu, d): c}."""
    return {(nu, d + e): c for (nu, d), c in coeffs.items()}


def suite_symmetry(max_N: int = 7, max_n: int = 4) -> Report:
    """Invariance of the three invariant flavors under permuting their
    arguments, and, under the fold-the-second-factor route, commutativity
    of the type A product and its rotation identity: s[n] * s[lam] is one
    term q^d1 s[lam'] (the quantum Pieri rule) and s[n] * s[mu'] = q^d2
    s[mu] for one mu', so q^d2 lam * mu = q^d1 lam' * mu'."""
    _bound("max_N", max_N)
    _bound("max_n", max_n)
    report = Report(ok=True)
    for N in range(2, max_N + 1):
        for m in range(1, N):
            n = N - m
            space = Space(A, m, n)
            classes = partitions_in_box(m, n)
            # s[n] * s[lam] = q^d s[nu] as lam -> (nu, d), and its inverse
            rotated = {lam: next(iter(space.pieri(lam, n))) for lam in classes}
            unrotated = {nu: (lam, d) for lam, (nu, d) in rotated.items()}
            for lam in classes:
                for mu in classes:
                    report.checked += 2
                    folded = ring.giambelli_fold(space, lam, mu)
                    if folded != ring.giambelli_fold(space, mu, lam):
                        _note(report, f"commutativity fails for {lam},{mu} on {space.label}")
                    (lam1, d1), (mu1, d2) = rotated[lam], unrotated[mu]
                    if _shift(folded, d2) != _shift(ring.giambelli_fold(space, lam1, mu1), d1):
                        _note(report, f"rotation fails for {lam},{mu} on {space.label}")
            _check_s3(report, space, _graded(space, classes, range(min(m, n) + 1)))
    for n in range(1, max_n + 1):
        classes = strict_partitions_max(n)
        for kind in (LG, OG):
            space = Space(kind, None, n)
            # three classes weigh at most 3 * dim, so no graded triple is missed
            _check_s3(report, space,
                      _graded(space, classes, range(2 * space.dim // space.q_degree + 1)))
    return report


SUITES = {
    "presentations": suite_presentations,
    "puzzle-conjecture": suite_puzzle_conjecture,
    "duality": suite_duality,
    "line-numbers": suite_line_numbers,
    "qtilde-properties": suite_qtilde_properties,
    "symmetry": suite_symmetry,
}
