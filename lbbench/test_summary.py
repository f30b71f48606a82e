#!/usr/bin/env python3
"""Self-test of the benchmark's summary code (lbbench/summary.py).

    python3 lbbench/test_summary.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summary  # noqa: E402

SPECS = [{"name": "op_ms_p10", "unit": "ms"},
         {"name": "setup_s", "unit": "s"}]


def span(name, op, parent, dur_ns, start_ns=0):
    return {"name": name, "op": op, "parent": parent, "start_ns": start_ns,
            "dur_ns": dur_ns, "calls": 1}


class Percentile(unittest.TestCase):
    def test_known_samples(self):
        xs = list(range(1, 11))  # 1..10
        self.assertAlmostEqual(summary.percentile(xs, 10), 1.9)
        self.assertAlmostEqual(summary.percentile(xs, 50), 5.5)
        self.assertEqual(summary.percentile(xs, 0), 1)
        self.assertEqual(summary.percentile(xs, 100), 10)

    def test_order_does_not_matter(self):
        self.assertAlmostEqual(summary.percentile([9, 1, 5, 3, 7], 10), 1.8)

    def test_single_sample(self):
        self.assertEqual(summary.percentile([4.25], 10), 4.25)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            summary.percentile([], 10)
        with self.assertRaises(ValueError):
            summary.percentile([1, 2], 101)


class EndToEnd(unittest.TestCase):
    def test_values(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "op_ms": list(range(1, 11)),
               "peak_rss_mb": 12.5}
        v = summary.end_to_end(raw)
        self.assertAlmostEqual(v["setup_s"], 0.12)
        self.assertAlmostEqual(v["op_ms_p10"], 1.9)
        self.assertEqual(v["peak_rss_mb"], 12.5)


class Layers(unittest.TestCase):
    def raw(self):
        # campaign_warm. Two ops: op 0 takes 4 ms (3 ms replay), op 1 takes
        # 6 ms (4 ms replay). Two cold set-ups: -1 takes 10 ms (build 4,
        # solve 3), -2 takes 20 ms (build 8, solve 6).
        spans = [span("op", 0, -1, 4_000_000),
                 span("campaign.replay", 0, 0, 3_000_000),
                 span("op", 1, -1, 6_000_000),
                 span("campaign.replay", 1, 2, 4_000_000),
                 span("op", -1, -1, 10_000_000),
                 span("lowerbound.build", -1, 4, 4_000_000),
                 span("maxis.solve", -1, 4, 3_000_000),
                 span("op", -2, -1, 20_000_000),
                 span("lowerbound.build", -2, 7, 8_000_000),
                 span("maxis.solve", -2, 7, 6_000_000)]
        return {"workload": "campaign_warm", "spans": spans,
                "residual_layer": "campaign.other_ms",
                "setup_residual_layer": "campaign.cold_other_ms",
                "layer_values": {"campaign.jobs": 83.0},
                "traced_op_ms": [4.0, 6.0], "op_ms": [3.0, 5.0],
                "alt_ms": [7.0, 17.0]}

    def test_self_times_add_up(self):
        values, check = summary.per_layer(self.raw())
        # Faster half = op 0 and set-up -1 only.
        self.assertEqual(check["ops_averaged"], 1)
        self.assertAlmostEqual(values["campaign.replay_ms"], 3.0)
        self.assertAlmostEqual(values["campaign.other_ms"], 1.0)
        self.assertAlmostEqual(values["trace.op_ms"], 4.0)
        self.assertAlmostEqual(check["layer_sum_ms"], check["op_ms"])
        self.assertAlmostEqual(values["lowerbound.build_ms"], 4.0)
        self.assertAlmostEqual(values["maxis.solve_ms"], 3.0)
        self.assertAlmostEqual(values["campaign.cold_other_ms"], 3.0)
        self.assertAlmostEqual(values["trace.setup_ms"], 10.0)
        self.assertAlmostEqual(check["setup_layer_sum_ms"], 10.0)
        self.assertAlmostEqual(values["campaign.disk_cache_ms"], 3.0)
        self.assertEqual(values["trace.samples"], 2)
        self.assertAlmostEqual(values["op_ms_p50"], 4.0)
        self.assertAlmostEqual(values["trace.overhead_ms"], 1.0)
        self.assertEqual(values["campaign.jobs"], 83.0)

    def test_nested_aggregates_use_self_time(self):
        # theorem5: program (50) contains solve (5); the board is the op
        # minus instantiate minus the bare run, which are not inside it.
        spans = [span("op", 0, -1, 100_000_000),
                 span("lowerbound.instantiate", 0, -1, 2_000_000),
                 span("congest.network_run", 0, -1, 60_000_000),
                 span("congest.program", 0, 2, 50_000_000),
                 span("maxis.solve", 0, 3, 5_000_000)]
        raw = {"workload": "theorem5", "spans": spans,
               "residual_layer": "comm.board_ms", "setup_residual_layer": "",
               "layer_values": {}, "traced_op_ms": [100.0], "op_ms": [99.0],
               "alt_ms": []}
        values, check = summary.per_layer(raw)
        self.assertAlmostEqual(values["congest.engine_self_ms"], 10.0)
        self.assertAlmostEqual(values["congest.program_self_ms"], 45.0)
        self.assertAlmostEqual(values["maxis.solve_ms"], 5.0)
        self.assertAlmostEqual(values["comm.board_ms"], 38.0)
        self.assertAlmostEqual(check["layer_sum_ms"], 100.0)
        self.assertNotIn("trace.setup_ms", values)

    def test_setup_without_op_span_sums_top_level_spans(self):
        # scale_flood set-up: two top-level spans and no residual.
        spans = [span("op", 0, -1, 40_000_000),
                 span("congest.program", 0, 0, 30_000_000),
                 span("lowerbound.implicit_build", -1, -1, 25_000_000),
                 span("congest.network_init", -1, -1, 10_000_000)]
        raw = {"workload": "scale_flood", "spans": spans,
               "residual_layer": "congest.round_engine_self_ms",
               "setup_residual_layer": "", "layer_values": {},
               "traced_op_ms": [40.0], "op_ms": [39.0], "alt_ms": []}
        values, check = summary.per_layer(raw)
        self.assertAlmostEqual(values["congest.round_engine_self_ms"], 10.0)
        self.assertAlmostEqual(values["trace.setup_ms"], 35.0)
        self.assertAlmostEqual(check["setup_layer_sum_ms"], 35.0)

    def test_unknown_span_is_rejected(self):
        raw = self.raw()
        raw["spans"].append(span("mystery.layer", 0, 0, 1))
        with self.assertRaises(ValueError):
            summary.per_layer(raw)

    def test_layer_span_without_op_is_rejected(self):
        raw = self.raw()
        raw["spans"].append(span("campaign.replay", 7, -1, 1))
        with self.assertRaises(ValueError):
            summary.per_layer(raw)


class Metrics(unittest.TestCase):
    def good(self):
        return {"op_ms_p10": {"value": 1.5, "unit": "ms"},
                "setup_s": {"value": 0.25, "unit": "s"}}

    def test_accepts_well_formed(self):
        summary.validate_metrics(self.good(), SPECS)

    def test_rejects_missing(self):
        m = self.good()
        del m["setup_s"]
        with self.assertRaisesRegex(ValueError, "missing"):
            summary.validate_metrics(m, SPECS)

    def test_rejects_unexpected(self):
        m = self.good()
        m["extra"] = {"value": 1.0, "unit": "ms"}
        with self.assertRaisesRegex(ValueError, "unexpected"):
            summary.validate_metrics(m, SPECS)

    def test_rejects_malformed(self):
        for bad in ({"value": "1.5", "unit": "ms"},
                    {"value": float("nan"), "unit": "ms"},
                    {"value": float("inf"), "unit": "ms"},
                    {"value": True, "unit": "ms"},
                    {"value": 1.5, "unit": "s"},
                    {"value": 1.5},
                    {"value": 1.5, "unit": "ms", "n": 3},
                    1.5):
            m = self.good()
            m["op_ms_p10"] = bad
            with self.assertRaises(ValueError, msg=repr(bad)):
                summary.validate_metrics(m, SPECS)

    def test_to_metrics_requires_measured_names(self):
        with self.assertRaisesRegex(ValueError, "did not measure"):
            summary.to_metrics({"op_ms_p10": 1.0}, SPECS,
                               {"op_ms_p10", "setup_s"})

    def test_to_metrics_zero_for_unentered_layers(self):
        m = summary.to_metrics({"op_ms_p10": 1.0}, SPECS, {"op_ms_p10"})
        self.assertEqual(m["setup_s"], {"value": 0.0, "unit": "s"})
        summary.validate_metrics(m, SPECS)


class Fingerprint(unittest.TestCase):
    def test_compares_common_keys_only(self):
        self.assertEqual(summary.compare_fingerprint(
            {"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 4}), ["b"])
        self.assertEqual(summary.compare_fingerprint({}, {"a": 1}), [])


if __name__ == "__main__":
    unittest.main()
