"""Workload inputs, timed operations and correctness gates.

Inputs are drawn from ``random.Random(seed)`` and from the committed type A
reference, so one seed always gives the same inputs.  Generating inputs
needs no ``qschubert`` import; running and gating them does, and happens
only in the child interpreter (``child.py``).

Why these workloads (see README.md for the layer map):

* ``verify-grid``: the paper's puzzle-vs-Pieri cross-check, one size below
  acceptance criterion 07.  Heavy reuse of cached products; the only
  workload where the puzzle layer does real work.
* ``typea-products``: distinct random products on G(m, N), N = 10..12, plus
  staircase products up to G(7, 14).  Little reuse, heavy-tailed latency,
  growing memory; the Jacobi-Trudi walk and Pieri fold dominate.
* ``iso-products``: every LG(4, 8) and OG(5, 10) product and sampled
  invariants.  The e-basis route (qpoly) dominates; puzzle and typea idle.
* ``cli-oneshot``: sequential command-line calls, each in a fresh process,
  half of them repeats served from the JSONL result cache.  Start-up and
  cache I/O dominate.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import speed

WORKLOADS = ("verify-grid", "typea-products", "iso-products", "cli-oneshot")

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference" / "typea_products.json"

VERIFY_MAX_N = 7
VERIFY_CHECKS = 140_621

# G(m, m + n) -> size of the committed pool of distinct pairs, sorted by
# cost.  Every repetition takes the costliest TYPEA_FIXED_SHARE of a pool
# and one pair from each stratum of TYPEA_STRATUM pairs of the rest.
TYPEA_POOL = {(6, 6): 320, (5, 6): 240, (5, 5): 240, (4, 8): 240}
TYPEA_FIXED_SHARE = 0.1
TYPEA_STRATUM = 2
TYPEA_STAIRCASE_MAX = 7

ISO_N = 4
ISO_GW_PER_SPACE = 64


# ---------------------------------------------------------------------------
# Index sets, generated here so that run.py never imports the program.


def box_partitions(m: int, n: int) -> list[tuple[int, ...]]:
    """Partitions inside the m x n rectangle, trailing zeros stripped."""
    out = []

    def rec(prefix, bound):
        out.append(prefix)
        if len(prefix) < m:
            for part in range(1, bound + 1):
                rec(prefix + (part,), part)

    rec((), n)
    return out


def strict_partitions(n: int) -> list[tuple[int, ...]]:
    """Strict partitions with parts at most n."""
    out = []

    def rec(prefix, bound):
        out.append(prefix)
        for part in range(1, bound):
            rec(prefix + (part,), part)

    rec((), n + 1)
    return out


def staircase(m: int) -> tuple[int, ...]:
    return tuple(range(m, 0, -1))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def typea_inputs(seed: int) -> list[tuple]:
    """(m, n, lam, mu, expected digest) for one repetition.

    The costliest pairs, which set the latency tail, are in every
    repetition; the seed draws one pair from each stratum of similar cost
    below them.  Every seed thus gets the same spread of cheap and
    expensive products, and the seed moves the figures less than the
    engine does.
    """
    rng = random.Random(seed)
    ref = load_reference()
    ops = []
    for space in ref["spaces"]:
        m, n, pairs = space["m"], space["n"], space["pairs"]
        split = len(pairs) - int(len(pairs) * TYPEA_FIXED_SHARE)
        chosen = pairs[split:] + [rng.choice(pairs[i:i + TYPEA_STRATUM])
                                  for i in range(0, split, TYPEA_STRATUM)]
        ops += [(m, n, tuple(lam), tuple(mu), want) for lam, mu, want in chosen]
    for m, want in ref["staircases"]:
        ops.append((m, m, staircase(m), staircase(m), want))
    rng.shuffle(ops)
    return ops


def _iso_degree_ok(flavor: str, n: int, weight: int, d: int) -> bool:
    base = n * (n + 1) // 2
    step = n + 1 if flavor == "LG" else 2 * n
    return weight == base + d * step


def iso_inputs(seed: int) -> list[tuple]:
    """Every ordered product on LG(n, 2n) and OG(n+1, 2n+2), then seeded
    degree-matching invariants.

    Products run by ascending total weight, in a seeded order within each
    weight.  The first product of each weight pays for that weight's basis
    transition; in a fully random order the cost of a transition depends
    on which smaller ones happen to be cached, which makes the latency tail
    depend on the seed far more than on the engine.
    """
    rng = random.Random(seed)
    classes = strict_partitions(ISO_N)
    products = [("prod", flavor, lam, mu)
                for flavor in ("LG", "OG") for lam in classes for mu in classes]
    rng.shuffle(products)
    products.sort(key=lambda op: sum(op[2]) + sum(op[3]))
    invariants = []
    for flavor in ("LG", "OG"):
        triples = [("gw", flavor, lam, mu, nu, d)
                   for lam in classes for mu in classes for nu in classes
                   for d in range(ISO_N + 1)
                   if _iso_degree_ok(flavor, ISO_N, sum(lam) + sum(mu) + sum(nu), d)]
        invariants += rng.sample(triples, ISO_GW_PER_SPACE)
    rng.shuffle(invariants)
    return products + invariants


def _arg(lam) -> str:
    return ",".join(map(str, lam)) if lam else "0"


def _pick_weight(rng, classes, weight):
    pool = [x for x in classes if sum(x) == weight]
    return rng.choice(pool) if pool else None


def cli_inputs(seed: int) -> list[list[str]]:
    """Twenty distinct first-time calls in a seeded order; every one is
    repeated later (the workload appends the repeats)."""
    rng = random.Random(seed)
    calls = []
    box = box_partitions(3, 3)
    for lam, mu in rng.sample([(a, b) for a in box for b in box], 4):
        calls.append(["qprod", "--space", "A", "--m", "3", "--n", "3",
                      "--lambda", _arg(lam), "--mu", _arg(mu)])
    strict = strict_partitions(3)
    for space in ("LG", "OG"):
        for lam, mu in rng.sample([(a, b) for a in strict for b in strict], 3):
            calls.append(["qprod", "--space", space, "--n", "3",
                          "--lambda", _arg(lam), "--mu", _arg(mu)])
    for method in ("pieri", "pieri", "puzzle", "puzzle"):
        while True:
            lam, mu, d = rng.choice(box), rng.choice(box), rng.randrange(0, 4)
            nu = _pick_weight(rng, box, 9 + 6 * d - sum(lam) - sum(mu))
            if nu is not None:
                break
        call = ["gw", "--space", "A", "--m", "3", "--n", "3", "--lambda", _arg(lam),
                "--mu", _arg(mu), "--nu", _arg(nu), "--d", str(d)]
        calls.append(call + (["--method", "puzzle"] if method == "puzzle" else []))
    for space, step in (("LG", 4), ("OG", 6)):
        while True:
            lam, mu, d = rng.choice(strict), rng.choice(strict), rng.randrange(0, 3)
            nu = _pick_weight(rng, strict, 6 + step * d - sum(lam) - sum(mu))
            if nu is not None:
                break
        calls.append(["gw", "--space", space, "--n", "3", "--lambda", _arg(lam),
                      "--mu", _arg(mu), "--nu", _arg(nu), "--d", str(d)])
    for _ in range(2):
        lam, mu = rng.choice(box), rng.choice(box)
        nu = _pick_weight(rng, box, sum(lam) + sum(mu)) or ()
        calls.append(["lr", "--m", "3", "--n", "3", "--lambda", _arg(lam),
                      "--mu", _arg(mu), "--nu", _arg(nu)])
    for kind, word in (("1step", "000111"), ("2step", "001122")):
        strings = ["".join(rng.sample(word, len(word))) for _ in range(3)]
        calls.append(["puzzle", "--type", kind, "--nw", strings[0],
                      "--ne", strings[1], "--s", strings[2]])
    rng.shuffle(calls)
    return calls


def cli_sequence(seed: int) -> list[tuple[int, list[str]]]:
    """(index of the first-time call, argv) for every call of one
    repetition: all first-time calls, then all of them again in a second
    seeded order."""
    first = cli_inputs(seed)
    repeats = list(range(len(first)))
    random.Random(seed + 1).shuffle(repeats)
    return list(enumerate(first)) + [(i, first[i]) for i in repeats]


def planned_ops(workload: str, seed: int) -> int:
    """Operations one repetition attempts."""
    if workload == "verify-grid":
        return VERIFY_CHECKS
    if workload == "typea-products":
        return len(typea_inputs(seed))
    if workload == "iso-products":
        return len(iso_inputs(seed))
    return len(cli_sequence(seed))


def latency_samples_per_rep(workload: str, seed: int) -> int:
    """The suite is one public call, so verify-grid yields one per-check
    latency (its mean) per repetition."""
    return 1 if workload == "verify-grid" else planned_ops(workload, seed)


# ---------------------------------------------------------------------------
# One repetition, inside the child interpreter.  ``RUNNERS`` time the
# operations and return (operations, per-operation ms, per-operation
# slowness factor, workload seconds, results); ``GATES`` check the results
# afterwards, outside the timed region and with tracing removed.


def _timed(ops, call):
    """Time each operation, less the speed slices timed during it."""
    op_ms, spans, results = [], [], []
    with speed.Sampler() as sampler:
        for op in ops:
            busy = sampler.busy
            t0 = perf_counter()
            results.append(call(op))
            t1 = perf_counter()
            op_ms.append((t1 - t0 - (sampler.busy - busy)) * 1000.0)
            spans.append((t0, t1))
    factors = speed.local_factors(spans, sampler.marks)
    return len(ops), op_ms, factors, sum(op_ms) / 1000.0, results


def run_verify_grid(seed: int):
    """The suite is one public call, so it yields one latency sample per
    repetition: the mean time per check."""
    from qschubert import verify

    with speed.Sampler() as sampler:
        t0 = perf_counter()
        report = verify.suite_puzzle_conjecture(max_N=VERIFY_MAX_N)
        t1 = perf_counter()
    work_s = t1 - t0 - sampler.busy
    slowness = speed.local_factors([(t0, t1)], sampler.marks)
    return (report.checked, [work_s * 1000.0 / max(report.checked, 1)], slowness,
            work_s, report)


def gate_verify_grid(seed: int, report) -> tuple[int, int, list[str]]:
    errors = list(report.failures)
    failed = 0 if report.ok else max(1, len(errors))
    if report.checked != VERIFY_CHECKS:
        failed += 1
        errors.append(f"{report.checked} checks, expected {VERIFY_CHECKS}")
    return max(report.checked, VERIFY_CHECKS), failed, errors


def run_typea_products(seed: int):
    from qschubert import typea

    return _timed(typea_inputs(seed),
                  lambda op: typea.quantum_product_a(op[2], op[3], op[0], op[1]))


def gate_typea_products(seed: int, results) -> tuple[int, int, list[str]]:
    ops = typea_inputs(seed)
    errors = [f"G({m},{m + n}) {lam}*{mu}: result differs from the reference"
              for (m, n, lam, mu, want), got in zip(ops, results)
              if digest(got.text()) != want]
    return len(ops), len(errors), errors


def run_iso_products(seed: int):
    from qschubert import isotropic

    def call(op):
        if op[0] == "prod":
            fn = isotropic.quantum_product_lg if op[1] == "LG" else isotropic.quantum_product_og
            return fn(op[2], op[3], ISO_N)
        fn = isotropic.gw_lg if op[1] == "LG" else isotropic.gw_og
        return fn(*op[2:], ISO_N)

    return _timed(iso_inputs(seed), call)


def gate_iso_products(seed: int, results) -> tuple[int, int, list[str]]:
    """Every product and invariant must equal the Pfaffian-fold route."""
    from qschubert import isotropic
    from qschubert.combinat import strict_dual

    fold = {"LG": isotropic.quantum_product_lg_pfaffian,
            "OG": isotropic.quantum_product_og_pfaffian}
    ops = iso_inputs(seed)
    folded = {}
    errors = []
    for op, got in zip(ops, results):
        key = op[1:4]
        if key not in folded:
            folded[key] = fold[op[1]](op[2], op[3], ISO_N)
        want = folded[key]
        if op[0] == "gw":
            want = want.coefficient(strict_dual(op[4], ISO_N), op[5])
        if got != want:
            errors.append(f"{op}: engine and Pfaffian fold disagree")
    return len(ops), len(errors), errors


RUNNERS = {
    "verify-grid": run_verify_grid,
    "typea-products": run_typea_products,
    "iso-products": run_iso_products,
}

GATES = {
    "verify-grid": gate_verify_grid,
    "typea-products": gate_typea_products,
    "iso-products": gate_iso_products,
}
