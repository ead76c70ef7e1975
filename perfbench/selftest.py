"""Self-tests of the benchmark's own arithmetic and checks.

Run them with::

    python3 perfbench/selftest.py

They cover span self time, the tail-percentile rule, the host-speed
scaling, metric names and units (and their agreement with
``BENCHMARK.json``), the report-digest check, and the open-loop client
(which starts one ``repro serve``).
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import battery  # noqa: E402
import benchstats  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
from spans import Span, SpanRecorder, self_times  # noqa: E402


class SpanSelfTime(unittest.TestCase):
    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 4.0, 0),
            Span("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
            Span("c", 2.0, 3.0, 1),  # nested in a
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 3.0, 1.0])

    def test_children_are_clipped_to_their_parent(self):
        spans = [Span("root", 0.0, 4.0, -1), Span("late", 3.0, 9.0, 0)]
        self.assertEqual(self_times(spans), [3.0, 6.0])

    def test_nested_self_times_add_up_to_the_root(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: float(next(ticks)))
        leaf = recorder.wrap(lambda: None, "leaf")
        middle = recorder.wrap(lambda: (leaf(), leaf()), "middle")
        root = recorder.wrap(lambda: (middle(), leaf()), "root", root=True)
        leaf()  # outside the root: not recorded
        root()
        self.assertEqual(len(recorder.spans), 5)
        wall = layers.root_wall(recorder.spans)
        self.assertAlmostEqual(sum(self_times(recorder.spans)), wall)

    def test_closure_over_layer_metrics(self):
        values = {name: 0.0 for name in layers.SELF_TIME_METRICS}
        values["isa.trace.busy_s"] = 1.5
        values["harness.unattributed_s"] = 0.5
        self.assertEqual(layers.closure_error(values, 2.0), 0.0)
        self.assertEqual(layers.closure_error(values, 2.5), 0.5)


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = list(range(1000))
        percentile, value, count = benchstats.tail_percentile(samples, 0.99)
        self.assertEqual((percentile, value, count), (0.99, 989, 1000))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_small_samples_lower_the_percentile(self):
        samples = list(range(500))
        percentile, value, count = benchstats.tail_percentile(samples, 0.99)
        self.assertAlmostEqual(percentile, 0.98)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertEqual(benchstats.percentile_label(percentile), "p98")

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(benchstats.tail_percentile(list(range(10)), 0.99))

    def test_failed_requests_count_beyond_the_limit(self):
        samples = [1.0] * 989 + [math.inf] * 11
        __, value, __ = benchstats.tail_percentile(samples, 0.99)
        self.assertEqual(value, math.inf)

    def test_quartile_spread(self):
        self.assertAlmostEqual(benchstats.quartile_spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        self.assertGreater(benchstats.quartile_spread([1.0, 2.0, 3.0, 4.0]), 0.5)


class HostSpeedScale(unittest.TestCase):
    def test_reference_host_keeps_host_seconds(self):
        reference = hostspeed.REFERENCE_S
        self.assertAlmostEqual(hostspeed.scale(reference, reference), 1.0)

    def test_slower_host_shrinks_by_mean_calibration(self):
        reference = hostspeed.REFERENCE_S
        # a host half as fast before and a third as fast after: mean 2.5x
        self.assertAlmostEqual(hostspeed.scale(2 * reference, 3 * reference), 0.4)

    def test_calibration_is_a_positive_time(self):
        self.assertGreater(hostspeed.calibrate(), 0.0)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("wall_s", "harness.exp.speculation-gating_s", "9lives", "a" * 64):
            self.assertTrue(benchstats.valid_name(good), good)
        for bad in ("", ".hidden", "-x", "a b", "a/b", "a" * 65, "é"):
            self.assertFalse(benchstats.valid_name(bad), bad)
        self.assertTrue(benchstats.valid_unit("1/s"))
        self.assertFalse(benchstats.valid_unit("branches per s"))

    def test_every_metric_is_well_formed_and_unique(self):
        names = [name for name, *__ in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better, *__ in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertTrue(benchstats.valid_name(name), name)
            self.assertTrue(benchstats.valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_the_definitions(self):
        document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        expected = metrics.benchmark_json(
            [(w["name"], w["why"]) for w in document["workloads"]], document["run_seconds"]
        )
        self.assertEqual(document, expected)
        self.assertEqual(
            [w["name"] for w in document["workloads"]], list(run.WORKLOAD_NAMES)
        )

    def test_layer_metrics_cover_the_declared_names(self):
        produced = layers.layer_metrics([Span(layers.ROOT, 0.0, 1.0, -1)], {})
        produced["trace.overhead_frac"] = 0.0
        declared = [name for name, *__ in metrics.PER_LAYER if not name.startswith(
            ("serve.", "loadgen."))]
        self.assertEqual(sorted(produced), sorted(declared))


class DigestCheck(unittest.TestCase):
    expected = {"report": "r" * 64, "experiments": {"tab2": "t" * 64, "fig3": "f" * 64}}

    def result(self, **changes):
        result = {
            "ok": True,
            "traced": False,
            "digest": "r" * 64,
            "experiments": {"tab2": "t" * 64, "fig3": "f" * 64},
        }
        result.update(changes)
        return result

    def test_matching_pass_passes(self):
        self.assertEqual(run.check_pass(self.result(), self.expected), (2, 0, []))

    def test_corrupted_report_digest_fails_the_run(self):
        corrupted = dict(self.expected, report="0" * 64)
        attempted, failed, problems = run.check_pass(self.result(), corrupted)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertTrue(problems)

    def test_experiment_mismatch_counts_per_experiment(self):
        bad = self.result(experiments={"tab2": "x", "fig3": "y"}, digest="z")
        self.assertEqual(run.check_pass(bad, self.expected)[:2], (2, 2))

    def test_failed_pass_fails_every_experiment(self):
        self.assertEqual(run.check_pass({"ok": False}, self.expected)[:2], (2, 2))

    def test_traced_pass_must_close(self):
        traced = self.result(traced=True, closure_error_s=1e-3)
        self.assertEqual(run.check_pass(traced, self.expected)[:2], (2, 1))

    def test_recorded_digests_cover_every_variant(self):
        import variants

        digests = run.load_digests()
        for workload in battery.WORKLOADS:
            self.assertEqual(
                sorted(digests[workload], key=int),
                [str(v) for v in range(variants.VARIANTS)],
            )


class OpenLoopClient(unittest.TestCase):
    """Far below capacity, open-loop latency is one batch's service time.

    A client that paced its sends inside the timed window would report
    latencies near the send interval (50 ms here) instead.
    """

    def test_low_rate_latency_matches_service_time(self):
        if not procs.program_present():
            self.skipTest("program sources not present")
        import servebench

        with procs.workdir() as work:
            servebench.use_program(work)
            from repro.serve.session import session_families

            families = list(session_families())
            batches, references = servebench.prepare(("compress",), families)
            server = servebench.Server(work)
            try:
                port = server.wait_port()
                asyncio.run(servebench.first_welcome(port, "compress", families))
                service = asyncio.run(servebench.run_phase(
                    port, [("pingpong", "compress")], batches, references, families,
                    connections=1, max_in_flight=1,
                ))
                slow = asyncio.run(servebench.run_phase(
                    port, [("slow", "compress")], batches, references, families,
                    rate=20.0, connections=1,
                ))
            finally:
                server.stop()
        self.assertEqual((service.failed, slow.failed), (0, 0))
        service_ms = benchstats.median(service.latencies_ms)
        open_ms = benchstats.median(slow.latencies_ms)
        self.assertLess(open_ms, 2.0 * service_ms + 5.0, (open_ms, service_ms))
        self.assertLess(benchstats.median(slow.late_ms), 5.0)


if __name__ == "__main__":
    unittest.main()
