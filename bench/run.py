"""Benchmark of the qschubert engine.

One workload, as BENCHMARK.json declares the command:

    python3 bench/run.py --workload typea-products --seed 1 --seconds 25 --trace 0

All four workloads, end to end and then traced, with the machine record:

    python3 bench/run.py --all --seed 1 --seconds 25 [--frontier]

The scaling frontier alone (report only, not a gated metric):

    python3 bench/run.py --frontier

Every repetition runs in a fresh interpreter (``child.py``), one at a
time, because every user run pays to fill the engine's memo caches.  The
seed draws every input and pins PYTHONHASHSEED in the children.  A run
repeats its workload until ``--seconds`` is spent (at least MIN_REPS
times) and reports medians over the repetitions.

Every measured time is divided by the slowness that ``speed.py`` samples
next to it in the same process, so that times read as they would at the
reference speed; both the scaled and the raw values are printed.

With ``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repetitions and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object; the exit code is 1 when any correctness gate fails.  See
README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = BENCH / "out"

MIN_REPS = 3
MIN_TRACE_PAIRS = 2
PROBES_PER_GAP = 2
CHILD_TIMEOUT_S = 150
FRONTIER_LIMIT_S = 1.0
FRONTIER_CAP_S = 3.0
FRONTIER_MAX_SIZE = 16

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = tracer.layer_metric_names() + [
    ("cli.hit_p50_ms", "ms"),
    ("cli.miss_p50_ms", "ms"),
    ("cli.cache_bytes", "bytes"),
    ("setup.import_s", "s"),
    ("setup.import_share", "ratio"),
    ("trace_overhead", "ratio"),
]


class ChildFailed(RuntimeError):
    pass


def spawn(spec: dict, hash_seed: int, timeout: float = CHILD_TIMEOUT_S):
    """Run child.py once; returns (stdout, record, wall seconds).

    The record carries the child's exit code; ChildFailed means the child
    produced no record at all.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2 ** 32))
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{spec['mode']} child exceeded {timeout} s") from exc
    wall = time.monotonic() - t0
    lines = [x for x in proc.stderr.splitlines() if x.startswith("BENCH-CHILD ")]
    if not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{spec['mode']} child exited {proc.returncode}: {' | '.join(tail)}")
    record = json.loads(lines[-1][len("BENCH-CHILD "):])
    record["exit"] = proc.returncode
    record["setup_s"] = record["t_import"] - t0
    return proc.stdout, record, wall


def probe(seed: int) -> dict:
    """Set-up time and slowness, from a child that only imports qschubert
    and times speed slices."""
    _, rec, _ = spawn({"mode": "probe"}, seed)
    return {"setup_s": rec["setup_s"], "import_s": rec["import_s"],
            "slowness": rec["slowness"]}


# ---------------------------------------------------------------------------
# Repetitions


def rep_workload(name: str, seed: int, trace: bool) -> dict:
    """One repetition of a library workload in a fresh interpreter."""
    _, rec, _ = spawn({"mode": "rep", "workload": name, "seed": seed, "trace": trace}, seed)
    if rec["exit"] != 0:
        raise ChildFailed(f"rep child exited {rec['exit']}")
    keys = ("ops", "op_ms", "op_ms_scaled", "work_s", "slowness", "rss_mb",
            "attempted", "failed", "errors", "trace")
    return {k: rec[k] for k in keys}


def rep_cli(seed: int, trace: bool) -> dict:
    """One repetition of cli-oneshot: every call a fresh process, with a
    fresh result cache in a temporary directory.  A call's time is the
    child's wall time less the speed slices it times after the call."""
    OUT.mkdir(exist_ok=True)
    op_ms, scaled, hit_ms, miss_ms, errors, summaries, setups = [], [], [], [], [], [], []
    first_stdout: dict[int, str] = {}
    rss, failed = 0.0, 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cache = os.path.join(tmp, "cache.jsonl")
        for idx, argv in workloads.cli_sequence(seed):
            cached = argv[0] == "qprod"
            stdout, rec, wall = spawn(
                {"mode": "cli", "argv": argv + (["--cache", cache] if cached else []),
                 "trace": trace}, seed)
            repeat = idx in first_stdout
            if rec["exit"] != 0:
                failed += 1
                errors.append(f"{argv} exited {rec['exit']}: {stdout.strip()[:200]}")
            elif repeat and stdout != first_stdout[idx]:
                failed += 1
                errors.append(f"{argv}: repeated call printed different bytes")
            first_stdout.setdefault(idx, stdout)
            ms = (wall - rec["speed_s"]) * 1000.0
            op_ms.append(ms)
            scaled.append(ms / rec["slowness"])
            if cached:
                (hit_ms if repeat else miss_ms).append(scaled[-1])
            setups.append({"setup_s": rec["setup_s"], "import_s": rec["import_s"],
                           "slowness": rec["slowness"]})
            rss = max(rss, rec["rss_mb"])
            if rec["trace"]:
                summaries.append(rec["trace"])
        cache_bytes = os.path.getsize(cache) if os.path.exists(cache) else 0
    return {"ops": len(op_ms), "op_ms": op_ms, "op_ms_scaled": scaled,
            "work_s": sum(op_ms) / 1000.0, "slowness": sum(op_ms) / sum(scaled),
            "rss_mb": rss, "attempted": len(op_ms), "failed": failed, "errors": errors,
            "trace": tracer.merge_summaries(summaries) if trace else None,
            "setups": setups, "hit_p50_ms": stats.median(hit_ms),
            "miss_p50_ms": stats.median(miss_ms), "cache_bytes": cache_bytes}


def one_rep(name: str, seed: int, trace: bool) -> dict:
    if name == "cli-oneshot":
        return rep_cli(seed, trace)
    return rep_workload(name, seed, trace)


def run_reps(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Probe pairs and repetitions in turn: P P R P P R ... P P.  In a traced
    run each R is an untraced and a traced repetition."""
    probes = [probe(seed) for _ in range(PROBES_PER_GAP)]
    plain, traced_reps, durations = [], [], []
    minimum = MIN_TRACE_PAIRS if traced else MIN_REPS
    start = time.monotonic()
    while len(durations) < minimum or (
            time.monotonic() - start + stats.median(durations) <= seconds):
        t0 = time.monotonic()
        for trace in ((False, True) if traced else (False,)):
            rep = one_rep(name, seed, trace)
            (traced_reps if trace else plain).append(rep)
            probes += rep.get("setups", []) + [probe(seed) for _ in range(PROBES_PER_GAP)]
        durations.append(time.monotonic() - t0)
    reps = plain + traced_reps
    return {"plain": plain, "traced": traced_reps, "probes": probes,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "errors": [e for r in reps for e in r["errors"]][:5]}


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(name: str, seed: int, run: dict, scaled: bool) -> tuple[dict, dict]:
    reps, probes = run["plain"], run["probes"]
    key = "op_ms_scaled" if scaled else "op_ms"
    pooled = [x for r in reps for x in r[key]]
    planned = workloads.latency_samples_per_rep(name, seed) * MIN_REPS
    tail_ms, tail_p = stats.tail(pooled, planned)
    values = {
        "setup_s": stats.median([p["setup_s"] / (p["slowness"] if scaled else 1.0)
                                 for p in probes]),
        "ops_per_s": stats.median([r["ops"] * (r["slowness"] if scaled else 1.0) / r["work_s"]
                                   for r in reps]),
        "latency_p50_ms": stats.median(pooled),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": stats.median([r["rss_mb"] for r in reps]),
    }
    notes = {"repetitions": len(reps), "operations_per_rep": reps[0]["ops"],
             "latency_samples": len(pooled), "tail_percentile": tail_p,
             "setup_samples": len(probes),
             "slowness": stats.median([r["slowness"] for r in reps])}
    return values, notes


def per_layer_metrics(run: dict) -> dict:
    plain, traced = run["plain"], run["traced"]
    values = {}
    for metric, unit in tracer.layer_metric_names():
        fn, stat = metric.rsplit(".", 1)
        values[metric] = stats.median(
            [r["trace"]["functions"].get(fn, {}).get(stat, 0)
             / (r["slowness"] if unit == "s" else 1) for r in traced])
    cli = "cache_bytes" in plain[0]
    for key in ("hit_p50_ms", "miss_p50_ms", "cache_bytes"):
        values[f"cli.{key}"] = stats.median([r[key] for r in plain]) if cli else 0
    probes = run["probes"]
    imports = stats.median([p["import_s"] / p["slowness"] for p in probes])
    values["setup.import_s"] = imports
    values["setup.import_share"] = imports / stats.median(
        [p["setup_s"] / p["slowness"] for p in probes])
    values["trace_overhead"] = (
        stats.median([r["work_s"] / r["slowness"] for r in traced])
        / stats.median([r["work_s"] / r["slowness"] for r in plain]) - 1.0)
    return values


def write_trace(name: str, seed: int, run: dict) -> Path:
    """Keep the (function, caller) spans of the first traced repetition."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run["traced"][0]["trace"], fh, indent=1, sort_keys=True)
    return path


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: prints the metrics, returns the result object."""
    try:
        run = run_reps(name, seed, seconds, trace)
    except ChildFailed as exc:
        print(f"{name} seed {seed}: {exc}")
        planned = workloads.planned_ops(name, seed)
        return {"correct": False, "attempted": planned, "failed": planned, "metrics": {}}
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": {}}
    if trace:
        units = PER_LAYER
        values = per_layer_metrics(run)
        path = write_trace(name, seed, run)
        print(f"{name} seed {seed}: per-layer metrics over {len(run['traced'])} traced "
              f"repetitions, times scaled to the reference speed "
              f"(spans by caller in {path.relative_to(ROOT)})")
        for metric, unit in units:
            print(f"  {metric:<48} {values[metric]:>14.6g} {unit}")
    else:
        units = END_TO_END
        values, notes = end_to_end_metrics(name, seed, run, scaled=True)
        raw, _ = end_to_end_metrics(name, seed, run, scaled=False)
        print(f"{name} seed {seed}: {notes['repetitions']} repetitions of "
              f"{notes['operations_per_rep']} operations; latency over "
              f"{notes['latency_samples']} samples, tail at p{notes['tail_percentile']}; "
              f"{notes['setup_samples']} interpreter starts; "
              f"median slowness {notes['slowness']:.3f}")
        print(f"  {'metric':<20} {'scaled':>14} {'raw':>14}")
        for metric, unit in units:
            print(f"  {metric:<20} {values[metric]:>14.6g} {raw[metric]:>14.6g} {unit}")
    print(f"  failed_ratio {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']}/{run['attempted']})")
    for e in run["errors"]:
        print(f"  gate: {e}")
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in units}
    return result


# ---------------------------------------------------------------------------
# Scaling frontier (report only)


FRONTIER_SPACES = {"A": ("G({s},{t})", 2), "LG": ("LG({s},{t})", 1), "OG": ("OG({u},{v})", 1)}


def frontier() -> dict:
    """Largest staircase product under FRONTIER_LIMIT_S on each family, one
    capped probe process at a time."""
    report = {}
    for space, (label, first) in FRONTIER_SPACES.items():
        probes, largest = [], None
        for size in range(first, FRONTIER_MAX_SIZE + 1):
            name = label.format(s=size, t=2 * size, u=size + 1, v=2 * size + 2)
            try:
                _, rec, _ = spawn({"mode": "frontier", "space": space, "size": size},
                                  0, timeout=FRONTIER_CAP_S)
            except ChildFailed:
                rec = {"exit": None}
            if rec["exit"] == 0:
                raw, seconds = rec["product_s"], rec["product_s"] / rec["slowness"]
                shown = f"{seconds:.4f} s scaled, {raw:.4f} s raw"
            else:
                raw = seconds = None
                shown = f"over the {FRONTIER_CAP_S:g} s cap"
            probes.append({"space": name, "product_s": seconds, "raw_s": raw})
            print(f"  frontier {name:<12} {shown}", flush=True)
            if seconds is None or seconds >= FRONTIER_LIMIT_S:
                break
            largest = name
        report[space] = {"largest_under_1s": largest, "probes": probes}
    return report


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--frontier", action="store_true", help="report the scaling frontier")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.frontier):
        parser.error("give --workload, --all or --frontier")
    if not (ROOT / "src" / "qschubert" / "__init__.py").is_file():
        print(f"no qschubert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds}
    ok = True
    if args.all:
        record["workloads"] = {}
        for name in workloads.WORKLOADS:
            entry = {}
            for trace in (False, True):
                result = measure(name, args.seed, args.seconds, trace)
                ok &= result["correct"]
                entry["per_layer" if trace else "end_to_end"] = result
            record["workloads"][name] = entry
    if args.frontier:
        record["frontier"] = frontier()
    print(json.dumps(record, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
