"""Batch verification suites.

Each suite runs one family of cross-checks between independent routes of
the engine (ring presentations, puzzle counting versus Pieri folding,
the orthogonal/Lagrangian duality, line numbers, properties of the
Pfaffian-polynomial basis, and symmetry of the invariants) over an
exhaustive grid bounded by the given size limits.
"""

from __future__ import annotations

from itertools import combinations

from . import isotropic, puzzle, qpoly, ring, typea
from .combinat import (partition, partitions_in_box,
                       partitions_with_parts_at_most,
                       strict_partitions_max, word_01)
from .ring import A, LG, OG, Space
from .typea import Report

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


def suite_presentations(max_N: int = 8, max_n: int = 4) -> Report:
    """Ring presentations: type A for all m+n <= max_N, LG and OG for
    n <= max_n."""
    report = Report(ok=True)
    for N in range(2, max_N + 1):
        for m in range(1, N):
            _absorb(report, typea.presentation_report_a(m, N - m))
    for n in range(1, max_n + 1):
        for flavor in (LG, OG):
            _absorb(report, isotropic.presentation_report_isotropic(flavor, n))
    return report


def _graded_triples(classes: list, m: int, n: int):
    """Every (d, lam, mu, nu) of classes on G(m, m+n) with
    |lam| + |mu| + |nu| = mn + d(m+n), for 0 <= d <= min(m, n)."""
    by_weight: dict[int, list] = {}
    for lam in classes:
        by_weight.setdefault(sum(lam), []).append(lam)
    for d in range(0, min(m, n) + 1):
        for lam in classes:
            for mu in classes:
                for nu in by_weight.get(m * n + d * (m + n) - sum(lam) - sum(mu), ()):
                    yield d, lam, mu, nu


def suite_puzzle_conjecture(max_N: int = 8) -> Report:
    """Puzzle counts versus the Pieri-fold route.

    For every G(m, N) with N <= max_N and every degree-matching triple
    (lam, mu, nu, d), the 2-step puzzle count over the degree-d strings
    must equal the quantum-product coefficient.  For N <= _MAX_CLASSICAL_N
    the classical 1-step count is additionally compared on all ordered
    triples, including degree-mismatched ones (both sides zero).
    """
    report = Report(ok=True)
    for N in range(2, max_N + 1):
        for m in range(1, N):
            n = N - m
            space = Space(A, m, n)
            classes = partitions_in_box(m, n)
            if N <= _MAX_CLASSICAL_N:
                strings = {lam: word_01(lam, m, n) for lam in classes}
                for lam in classes:
                    for mu in classes:
                        for nu in classes:
                            got = puzzle.count(strings[lam], strings[mu], strings[nu], "1step")
                            want = ring.gw(space, lam, mu, nu, 0)
                            report.checked += 1
                            if got != want:
                                _note(report, f"1-step G({m},{N}) {lam},{mu},{nu}: "
                                              f"puzzle {got} != {want}")
            for d, lam, mu, nu in _graded_triples(classes, m, n):
                got = typea.puzzle_invariant(space, lam, mu, nu, d)
                want = ring.gw(space, lam, mu, nu, d)
                report.checked += 1
                if got != want:
                    _note(report, f"G({m},{N}) d={d} {lam},{mu},{nu}: "
                                  f"puzzle {got} != {want}")
    return report


def suite_duality(max_n: int = 4) -> Report:
    """OG invariants against their LG partners, including the vanishing
    clause for partitions shorter than 2d+1."""
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
    report = Report(ok=True)
    for n in range(1, max_n + 1):
        space = Space(LG, None, n)
        classes = strict_partitions_max(n)
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    if space.in_degree(1, lam, mu, nu):
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
    report = Report(ok=True)
    for n in range(1, max_n + 1):
        # vanishing above n
        for tail in ((), (1,), (n, 1)):
            lam = partition((n + 1,) + tail)
            report.checked += 1
            if not qpoly.qtilde_epoly(lam, n).is_zero():
                _note(report, f"nonzero value at {lam} with n={n}")
        # e_i of squared variables
        for i in range(1, n + 1):
            got = _epoly_monomials(qpoly.qtilde_epoly((i, i), n), n)
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
            if qpoly.expand_in_qtilde(qpoly.qtilde_epoly(lam, n), n) != {lam: 1}:
                _note(report, f"round-trip fails at {lam}, n={n}")
        # Pfaffian expansions along last column and first row agree
        for lam in pool:
            if len(lam) >= 3:
                report.checked += 1
                if qpoly.qtilde_epoly(lam, n) != qpoly.qtilde_pfaffian_first_row(lam, n):
                    _note(report, f"Pfaffian expansions differ at {lam}, n={n}")
        # factorization by repeated pairs
        for lam in pool:
            for i in range(1, n + 1):
                if sum(lam) + 2 * i > max_weight:
                    continue
                merged = partition(sorted(lam + (i, i), reverse=True))
                lhs = qpoly.qtilde_epoly(merged, n)
                rhs = qpoly.qtilde_epoly(lam, n) * qpoly.qtilde_epoly((i, i), n)
                report.checked += 1
                if lhs != rhs:
                    _note(report, f"factorization fails at {lam} + ({i},{i}), n={n}")
        # Pieri rule against structure constants
        for lam in strict_partitions_max(n):
            for p in range(0, n + 1):
                if sum(lam) + p > max_weight:
                    continue
                want = {nu: c for nu, c in
                        qpoly.qtilde_structure(lam, (p,) if p else (), n).items()}
                report.checked += 1
                if qpoly.qtilde_pieri(lam, p, n) != want:
                    _note(report, f"Pieri mismatch at {lam}, p={p}, n={n}")
        # power-of-two divisibility of quantum LG constants
        for lam in strict_partitions_max(n):
            for mu in strict_partitions_max(n):
                if sum(lam) + sum(mu) > max_weight:
                    continue
                for key, c in qpoly.qtilde_structure(lam, mu, n + 1).items():
                    d = 0
                    while d < len(key) and key[d] == n + 1:
                        d += 1
                    if d:
                        report.checked += 1
                        if c % (1 << d):
                            _note(report, f"2^{d} does not divide {c} at {key}, n={n}")
    return report


def suite_symmetry(max_N: int = 7, max_n: int = 4) -> Report:
    """Invariance of the three invariant flavors under permuting their
    arguments, and commutativity of the type A product under the
    fold-the-second-factor route."""
    report = Report(ok=True)
    for N in range(2, max_N + 1):
        for m in range(1, N):
            n = N - m
            space = Space(A, m, n)
            classes = partitions_in_box(m, n)
            for lam in classes:
                for mu in classes:
                    report.checked += 1
                    if ring.giambelli_fold(space, lam, mu) != \
                            ring.giambelli_fold(space, mu, lam):
                        _note(report, f"commutativity fails for {lam},{mu} on G({m},{N})")
            for d, lam, mu, nu in _graded_triples(classes, m, n):
                base = ring.gw(space, lam, mu, nu, d)
                report.checked += 1
                for triple in ((mu, nu, lam), (nu, lam, mu),
                               (mu, lam, nu), (lam, nu, mu), (nu, mu, lam)):
                    if ring.gw(space, *triple, d) != base:
                        _note(report, f"S3 fails on G({m},{N}) d={d} {lam},{mu},{nu}")
                        break
    for n in range(1, max_n + 1):
        classes = strict_partitions_max(n)
        spaces = (Space(LG, None, n), Space(OG, None, n))
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    total = sum(lam) + sum(mu) + sum(nu)
                    for space in spaces:
                        d, rem = divmod(total - space.dim, space.q_degree)
                        if rem == 0 and d >= 0:
                            base = ring.gw(space, lam, mu, nu, d)
                            report.checked += 1
                            if any(ring.gw(space, *t, d) != base for t in
                                   ((mu, nu, lam), (nu, lam, mu), (mu, lam, nu))):
                                _note(report, f"{space.kind} S3 fails at {lam},{mu},{nu}, n={n}")
    return report


SUITES = {
    "presentations": suite_presentations,
    "puzzle-conjecture": suite_puzzle_conjecture,
    "duality": suite_duality,
    "line-numbers": suite_line_numbers,
    "qtilde-properties": suite_qtilde_properties,
    "symmetry": suite_symmetry,
}
