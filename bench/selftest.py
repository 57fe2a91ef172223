"""Self-tests of the benchmark harness.  Run: python3 bench/selftest.py"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_at_least_ten_beyond_and_highest(self):
        for n in range(20, 2000):
            p = stats.tail_percentile(n)
            self.assertIsNotNone(p, n)
            self.assertGreaterEqual(n - stats.nearest_rank(p, n), stats.TAIL_BEYOND)
            if p < 99:
                self.assertLess(n - stats.nearest_rank(p + 1, n), stats.TAIL_BEYOND)

    def test_known_values(self):
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(120), 91)
        self.assertEqual(stats.tail_percentile(1000), 99)

    def test_too_few_samples_reports_the_median(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail([3.0, 1.0, 2.0, 9.0], 4), (2.5, 50))

    def test_percentile_fixed_by_plan_not_by_sample_count(self):
        samples = [float(x) for x in range(1, 201)]
        self.assertEqual(stats.tail(samples, 100), (180.0, 90))
        with self.assertRaises(ValueError):
            stats.tail(samples[:50], 100)


class MetricNames(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        for metrics in (run.END_TO_END, run.PER_LAYER):
            names = [name for name, _ in metrics]
            self.assertEqual(len(names), len(set(names)))
            for name in names:
                self.assertTrue(stats.valid_metric_name(name), name)

    def test_benchmark_json_matches_the_harness(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class TraceRestore(unittest.TestCase):
    def test_wrappers_restore_every_binding(self):
        import qschubert
        import qschubert.cli
        import qschubert.verify
        from qschubert import isotropic, qpoly, typea

        modules = tracer._package_modules()
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        mul = qpoly.EPoly.__dict__["__mul__"]
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(qpoly.EPoly.__dict__["__mul__"], mul)
            self.assertIsNot(typea.partition, before[("qschubert.combinat", "partition")])
            typea.quantum_product_a((2, 1), (1,), 2, 2)
            isotropic.quantum_product_lg((2,), (1,), 2)
        finally:
            t.uninstall()
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertIs(qpoly.EPoly.__dict__["__mul__"], mul)
        functions = t.summary()["functions"]
        self.assertEqual(functions["typea.quantum_product_a"]["calls"], 1)
        self.assertGreater(functions["combinat.partition"]["calls"], 0)
        self.assertGreater(functions["qpoly.EPoly.__mul__"]["calls"], 0)

    def test_self_time_excludes_children(self):
        t = tracer.Tracer()

        def inner():
            return sum(range(20000))

        wrapped_inner = t._wrap("inner", inner, ())

        def outer():
            return wrapped_inner() + wrapped_inner()

        t._wrap("outer", outer, ())()
        edges = {(e["fn"], e["parent"]): e for e in t.summary()["edges"]}
        self.assertEqual(edges[("inner", "outer")]["calls"], 2)
        out = edges[("outer", "")]
        self.assertAlmostEqual(out["self_s"] + edges[("inner", "outer")]["total_s"],
                               out["total_s"], places=9)


class Slowness(unittest.TestCase):
    def test_local_factors_use_the_slices_near_each_span(self):
        ref = speed.SLICE_REF_S
        marks = [(0.0, ref), (0.04, ref), (1.0, 2 * ref), (1.02, 4 * ref), (1.03, 2 * ref)]
        spans = [(0.01, 0.02), (0.99, 1.0), (0.5, 0.6)]
        self.assertEqual(speed.local_factors(spans, marks, window=0.05), [1.0, 2.0, 2.0])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for fn in (workloads.typea_inputs, workloads.iso_inputs, workloads.cli_sequence):
            self.assertEqual(fn(7), fn(7))
            self.assertNotEqual(fn(7), fn(8))

    def test_index_sets(self):
        self.assertEqual(len(workloads.box_partitions(6, 6)), 924)
        self.assertEqual(len(workloads.strict_partitions(4)), 16)

    def test_cli_half_repeats(self):
        seq = workloads.cli_sequence(3)
        first = [i for i, _ in seq[:len(seq) // 2]]
        self.assertEqual(sorted(first), sorted(i for i, _ in seq[len(seq) // 2:]))
        qprods = [argv for _, argv in seq[:len(seq) // 2] if argv[0] == "qprod"]
        self.assertEqual(len(qprods), len({tuple(a) for a in qprods}))


if __name__ == "__main__":
    unittest.main()
