"""One fresh interpreter of the benchmark: a set-up probe, one workload
repetition, one command-line call or one frontier probe.

Usage: python3 bench/child.py '<json spec>'

The program's own output (for a command-line call) goes to stdout.  The
child's measurements go to stderr as one line starting with ``MARK``.
The import of qschubert comes first, so that ``t_import`` (a system-wide
monotonic clock reading) marks the end of set-up.
"""

import os
import sys
import time

t_start = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
_t0 = time.perf_counter()
import qschubert  # noqa: E402

import_s = time.perf_counter() - _t0
t_import = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402

MARK = "BENCH-CHILD "


def _report(record: dict):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - speed.table_mb
    record.update(t_start=t_start, t_import=t_import, import_s=import_s, rss_mb=rss_mb)
    sys.stdout.flush()
    sys.stderr.write(MARK + json.dumps(record) + "\n")
    sys.stderr.flush()


def _rep(spec: dict) -> dict:
    import workloads
    from tracer import Tracer

    name, seed = spec["workload"], spec["seed"]
    if name == "verify-grid":
        import qschubert.verify  # noqa: F401  (loaded before tracing binds it)
    tracer = Tracer() if spec["trace"] else None
    with tracer or contextlib.nullcontext():
        ops, op_ms, slowness, work_s, results = workloads.RUNNERS[name](seed)
    attempted, failed, errors = workloads.GATES[name](seed, results)
    scaled = [ms / f for ms, f in zip(op_ms, slowness)]
    return {"ops": ops, "op_ms": op_ms, "op_ms_scaled": scaled, "work_s": work_s,
            "slowness": sum(op_ms) / sum(scaled), "attempted": attempted,
            "failed": failed, "errors": errors[:3],
            "trace": tracer.summary() if tracer else None}


def _cli(spec: dict) -> tuple[int, dict]:
    import qschubert.cli
    from tracer import Tracer

    tracer = Tracer() if spec["trace"] else None
    with tracer or contextlib.nullcontext():
        code = qschubert.cli.main(spec["argv"])
    # Sampled after the call; the parent takes speed_s off the call's time.
    start = time.perf_counter()
    slowness = speed.factor(20, with_table=False)
    return code, {"code": code, "slowness": slowness,
                  "speed_s": time.perf_counter() - start,
                  "trace": tracer.summary() if tracer else None}


def _frontier(spec: dict) -> dict:
    # A probe past the frontier may grow without bound; cap its memory.
    limit = 2 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from qschubert import isotropic, typea

    size = spec["size"]
    stair = tuple(range(size, 0, -1))
    product = {
        "A": lambda: typea.quantum_product_a(stair, stair, size, size),
        "LG": lambda: isotropic.quantum_product_lg(stair, stair, size),
        "OG": lambda: isotropic.quantum_product_og(stair, stair, size),
    }[spec["space"]]
    start = time.perf_counter()
    result = product()
    seconds = time.perf_counter() - start
    return {"product_s": seconds, "slowness": speed.factor(), "terms": len(result.coeffs)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if os.path.dirname(os.path.abspath(qschubert.__file__)) != os.path.join(SRC, "qschubert"):
        sys.stderr.write(f"qschubert was imported from {qschubert.__file__}, not {SRC}\n")
        return 3
    mode = spec["mode"]
    code = 0
    if mode == "probe":
        record = {"slowness": speed.factor(with_table=False)}
    elif mode == "rep":
        record = _rep(spec)
    elif mode == "cli":
        code, record = _cli(spec)
    elif mode == "frontier":
        record = _frontier(spec)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _report(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
