"""Tests of compare.py on synthetic result sets.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402


def noisy(center, rel, n=10):
    """n values spread evenly over center * (1 +- rel)."""
    return [center * (1 - rel + 2 * rel * i / (n - 1)) for i in range(n)]


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(compare.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_exclusive_method_on_ten_values(self):
        # Python's default "exclusive" method: positions (n+1)p.
        q1, q2, q3 = compare.quartiles(list(range(1, 11)))
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(compare.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(compare.spread([3.0] * 5), 0.0)


class VerdictTest(unittest.TestCase):
    def test_clear_gain_with_ten_winning_pairs_is_improved(self):
        base = noisy(100, 0.02)
        change = [b * 0.8 for b in base]
        self.assertEqual(compare.verdict(base, change, "lower", 0.1,
                                         list(zip(base, change))), "improved")

    def test_gain_needs_ten_pairs(self):
        base = noisy(100, 0.02, n=5)
        change = [b * 0.8 for b in base]
        # Every change run is better, so not unresolved, but too few pairs
        # to claim a gain.
        self.assertEqual(compare.verdict(base, change, "lower", 0.1,
                                         list(zip(base, change))), "unchanged")

    def test_gain_needs_nine_tenths_of_pairs(self):
        base = noisy(100, 0.02)
        change = [b * 0.9 for b in base]
        change[0] = change[1] = base[0] * 1.5  # two lost pairs
        self.assertNotEqual(compare.verdict(base, change, "lower", 0.1,
                                            list(zip(base, change))), "improved")

    def test_gain_smaller_than_base_iqr_is_not_improved(self):
        base = noisy(100, 0.05)
        change = [b - 1 for b in base]  # wins every pair by 1%
        self.assertEqual(compare.verdict(base, change, "lower", 0.2,
                                         list(zip(base, change))), "unchanged")

    def test_median_worse_than_bound_is_worse(self):
        base = noisy(100, 0.02)
        change = noisy(115, 0.02)
        self.assertEqual(compare.verdict(base, change, "lower", 0.1), "worse")

    def test_worse_respects_direction(self):
        base = noisy(100, 0.02)
        self.assertEqual(compare.verdict(base, noisy(85, 0.02), "higher", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(base, noisy(115, 0.02), "higher", 0.1,
                                         list(zip(base, noisy(115, 0.02)))),
                         "improved")

    def test_small_noise_is_unchanged(self):
        self.assertEqual(compare.verdict(noisy(100, 0.02), noisy(101, 0.02),
                                         "lower", 0.1), "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(compare.verdict(noisy(100, 0.3), noisy(101, 0.3),
                                         "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_change_run_better_is_not_unresolved(self):
        base = noisy(100, 0.3)
        change = [min(base) * 0.5 * (1 + i / 100) for i in range(10)]
        self.assertNotEqual(compare.verdict(base, change, "lower", 0.1),
                            "unresolved")

    def test_single_run_is_unresolved(self):
        self.assertEqual(compare.verdict([1.0], [1.0, 1.0], "lower", 0.1),
                         "unresolved")


class CompareDirsTest(unittest.TestCase):
    def write(self, root, workload, seed, value, trace=0):
        path = Path(root) / workload / f"seed{seed}-trace{trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": workload, "seed": seed, "trace": trace,
            "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}}))

    def test_pairs_by_seed_and_skips_traced_runs(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "op_p50_ms", "unit": "ms",
                                "better": "lower", "bound": 0.1}]}
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as change:
            for seed, v in enumerate(noisy(100, 0.02)):
                self.write(base, "w", seed, v)
                self.write(change, "w", seed, v * 1.3)
            self.write(change, "w", 0, 1.0, trace=1)  # ignored
            rows = compare.compare(spec, compare.load(base), compare.load(change))
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][4], "worse")


if __name__ == "__main__":
    unittest.main()
