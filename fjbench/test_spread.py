#!/usr/bin/env python3
"""Tests the run-to-run spread and agreement checks of spread.py.

    python3 fjbench/test_spread.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spread  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def runs(setup, p50, tput):
    return [{"metrics": {"setup_s": {"value": s}, "p50_us": {"value": p},
                         "throughput_per_s": {"value": t}}}
            for s, p, t in zip(setup, p50, tput)]


class SpreadTest(unittest.TestCase):
    def test_rel_spread_matches_quartiles(self):
        # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread.rel_spread(range(1, 11)), 5.5 / 5.5)

    def test_setup_exempt_from_spread_only(self):
        rows = spread.check_spreads(
            runs([1, 5, 9, 2, 7], [100, 101, 99, 100, 102], [10, 10, 10, 10, 10]),
            SPEC)
        verdict = {name: ok for name, _, _, _, ok in rows}
        self.assertTrue(verdict["setup_s"])
        self.assertTrue(verdict["p50_us"])
        rows = spread.check_spreads(
            runs([1] * 5, [50, 100, 150, 200, 250], [10] * 5), SPEC)
        self.assertFalse({n: ok for n, _, _, _, ok in rows}["p50_us"])

    def test_agreement_respects_direction(self):
        first = runs([1.0] * 3, [100] * 3, [1000] * 3)
        # Lower latency and higher throughput are improvements, never worse.
        better = runs([1.0] * 3, [50] * 3, [2000] * 3)
        self.assertTrue(all(r[-1] for r in spread.check_agreement(first, better, SPEC)))
        worse = runs([1.3] * 3, [109] * 3, [850] * 3)
        verdict = {r[0]: r[-1] for r in spread.check_agreement(first, worse, SPEC)}
        self.assertEqual(verdict, {"setup_s": False, "p50_us": True,
                                   "throughput_per_s": False})

    def test_worse_by(self):
        self.assertAlmostEqual(spread.worse_by(100, 120, "lower"), 0.2)
        self.assertAlmostEqual(spread.worse_by(100, 80, "higher"), 0.2)
        self.assertEqual(spread.worse_by(0, 0, "lower"), 0.0)


if __name__ == "__main__":
    unittest.main()
