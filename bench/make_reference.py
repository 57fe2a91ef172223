"""Build the committed type A reference, bench/reference/typea_products.json.

Run once, from the repository root:  python3 bench/make_reference.py

The pool of distinct pairs for each space is drawn with a fixed seed and
stored sorted by cost: the number of traced calls of ``combinat.partition``
and ``combinat.horizontal_strip_additions`` the product makes from empty
caches, which is exact and machine-independent.  The workloads take the costliest
pairs and draw the rest by stratum (``workloads.typea_inputs``).  Each product is stored as the
SHA-256 of ``quantum_product_a(lam, mu, m, n).text()``.  Before it is
stored, every product is cross-checked by two independent routes:

* folding the other factor (``typea.product_second_folded`` with the
  factors swapped), where the factors differ;
* the 2-step puzzle count ``gw_a_puzzle`` of every degree-matching
  coefficient, zero or not.

The script stops with an error if any route disagrees.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qschubert import typea  # noqa: E402
from qschubert.combinat import rect_dual  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

POOL_SEED = 20030306


def cold_cost(lam, mu, m, n) -> int:
    """Traced partition and Pieri-strip calls of one product from empty caches."""
    typea.clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        typea.quantum_product_a(lam, mu, m, n)
    finally:
        tracer.uninstall()
    functions = tracer.summary()["functions"]
    return sum(functions.get(f"combinat.{fn}", {}).get("calls", 0)
               for fn in ("partition", "horizontal_strip_additions"))


def cross_check(lam, mu, m, n, element) -> int:
    """Check ``element`` = s[lam] * s[mu] on G(m, m+n); returns the number
    of puzzle counts compared."""
    if lam != mu:
        light, heavy = sorted((lam, mu), key=sum)
        other = typea.product_second_folded(light, heavy, m, n)
        if other != element:
            raise SystemExit(f"fold routes disagree on G({m},{m + n}) {lam}*{mu}")
    compared = 0
    N = m + n
    by_weight = {}
    for nu in workloads.box_partitions(m, n):
        by_weight.setdefault(sum(nu), []).append(nu)
    for d in range(0, min(m, n) + 1):
        for nu in by_weight.get(sum(lam) + sum(mu) - d * N, ()):
            count = typea.gw_a_puzzle(lam, mu, rect_dual(nu, m, n), d, m, n)
            compared += 1
            if count != element.coefficient(nu, d):
                raise SystemExit(f"puzzles disagree on G({m},{N}) {lam}*{mu} at {nu}, d={d}")
    return compared


def main():
    started = time.perf_counter()
    spaces, puzzle_counts = [], 0
    for (m, n), size in workloads.TYPEA_POOL.items():
        rng = random.Random(POOL_SEED + 100 * m + n)
        classes = workloads.box_partitions(m, n)
        pairs = sorted({tuple(sorted((rng.choice(classes), rng.choice(classes))))
                        for _ in range(2 * size)})
        pairs = sorted(rng.sample(pairs, size), key=lambda p: (cold_cost(*p, m, n), p))
        typea.clear_caches()
        entries = []
        for lam, mu in pairs:
            element = typea.quantum_product_a(lam, mu, m, n)
            puzzle_counts += cross_check(lam, mu, m, n, element)
            entries.append([list(lam), list(mu), workloads.digest(element.text())])
        spaces.append({"m": m, "n": n, "pairs": entries})
        typea.clear_caches()
        print(f"G({m},{m + n}): {len(entries)} pairs checked", flush=True)
    staircases = []
    for m in range(2, workloads.TYPEA_STAIRCASE_MAX + 1):
        stair = workloads.staircase(m)
        element = typea.quantum_product_a(stair, stair, m, m)
        puzzle_counts += cross_check(stair, stair, m, m, element)
        staircases.append([m, workloads.digest(element.text())])
    print(f"staircases up to G({m},{2 * m}) checked", flush=True)
    reference = {
        "pool_seed": POOL_SEED,
        "cross_checks": {
            "other_factor_folded": "every pool pair with distinct factors",
            "puzzle_counts_compared": puzzle_counts,
        },
        "spaces": spaces,
        "staircases": staircases,
    }
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"],[', '"],\n[') + "\n")
    print(f"wrote {workloads.REFERENCE.relative_to(ROOT)} "
          f"({puzzle_counts} puzzle counts, {time.perf_counter() - started:.1f} s)")


if __name__ == "__main__":
    main()
