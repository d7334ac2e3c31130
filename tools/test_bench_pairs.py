#!/usr/bin/env python3
"""Self-checks for tools/bench_pairs.py.

The script decides whether a change may claim a gain and whether it
stays within BENCHMARK.json's bounds, so its medians, quartiles, win
counts, bound check and gain rule get their own tests, and so does the
export that decides what a reused build dir rebuilds. Run directly:

    python3 tools/test_bench_pairs.py
"""

import os
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_median_of_even_count_averages_the_middle_pair(self):
        self.assertEqual(bench_pairs.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(bench_pairs.quartiles([1, 2, 3, 4, 5]), (2, 4))
        # Positions 2.25 and 6.75 of 1..10 (inclusive method).
        self.assertEqual(bench_pairs.quartiles(list(range(1, 11))),
                         (3.25, 7.75))
        self.assertEqual(bench_pairs.quartiles([7]), (7, 7))

    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self):
        base = [10, 10, 10, 10]
        change = [9, 11, 10, 8]
        self.assertEqual(bench_pairs.count_wins(base, change, "lower"), 2)
        self.assertEqual(bench_pairs.count_wins(base, change, "higher"), 1)

    def test_bound_is_a_fraction_of_the_base_median(self):
        self.assertTrue(bench_pairs.within_bound(10.0, 12.5, "lower", 0.25))
        self.assertFalse(bench_pairs.within_bound(10.0, 12.6, "lower", 0.25))
        self.assertTrue(bench_pairs.within_bound(100.0, 75.0, "higher", 0.25))
        self.assertFalse(bench_pairs.within_bound(100.0, 74.0, "higher", 0.25))
        # Any improvement is within the bound.
        self.assertTrue(bench_pairs.within_bound(10.0, 1.0, "lower", 0.0))
        self.assertTrue(bench_pairs.within_bound(1.0, 10.0, "higher", 0.0))


class GainRuleTest(unittest.TestCase):
    BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_nine_of_ten_wins_beyond_the_iqr_is_a_gain(self):
        change = [8.6] * 9 + [10.5]  # loses one pair
        self.assertEqual(bench_pairs.count_wins(self.BASE, change, "lower"), 9)
        self.assertTrue(bench_pairs.gain_holds(self.BASE, change, "lower"))

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [8.6] * 8 + [10.5, 10.5]
        self.assertFalse(bench_pairs.gain_holds(self.BASE, change, "lower"))

    def test_a_shift_inside_the_base_iqr_is_not_a_gain(self):
        q1, q3 = bench_pairs.quartiles(self.BASE)
        change = [b - (q3 - q1) / 4 for b in self.BASE]  # wins every pair
        self.assertEqual(bench_pairs.count_wins(self.BASE, change, "lower"),
                         10)
        self.assertFalse(bench_pairs.gain_holds(self.BASE, change, "lower"))

    def test_higher_is_better_metrics_gain_upward(self):
        base = [80.0, 82.0, 84.0, 86.0, 88.0, 84.0, 83.0, 85.0, 84.0, 84.0]
        up = [v + 15 for v in base]
        self.assertTrue(bench_pairs.gain_holds(base, up, "higher"))
        self.assertFalse(bench_pairs.gain_holds(base, up, "lower"))

    def test_summary_row_carries_bound_only_for_bounded_metrics(self):
        spec = {"name": "latency_p50_s", "unit": "s", "better": "lower",
                "bound": 0.25}
        row = bench_pairs.summarize(spec, self.BASE, [8.6] * 10)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["base_median"], 10.0)
        self.assertTrue(row["within_bound"])
        self.assertTrue(row["gain"])
        layer = {"name": "compress.decompress_s", "unit": "s",
                 "better": "lower"}
        self.assertNotIn("within_bound",
                         bench_pairs.summarize(layer, self.BASE, self.BASE))


class RunResultTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = ('perfbench environment\n  x 1\n'
               '{"correct": true, "attempted": 5, "failed": 0, '
               '"metrics": {"latency_p50_s": {"value": 0.01, "unit": "s"}}}\n')
        result = bench_pairs.parse_result(out)
        self.assertEqual(result["attempted"], 5)
        self.assertTrue(bench_pairs.run_ok(0, result))

    def test_wrong_failed_or_missing_results_are_not_ok(self):
        ok = {"correct": True, "failed": 0, "metrics": {}}
        self.assertFalse(bench_pairs.run_ok(1, ok))
        self.assertFalse(bench_pairs.run_ok(0, dict(ok, correct=False)))
        self.assertFalse(bench_pairs.run_ok(0, dict(ok, failed=2)))
        self.assertFalse(bench_pairs.run_ok(0, None))
        self.assertIsNone(bench_pairs.parse_result(""))
        self.assertIsNone(bench_pairs.parse_result("perfbench: build failed\n"))
        self.assertIsNone(bench_pairs.parse_result('{"correct": true}\n'))


class ExportTest(unittest.TestCase):
    """Two revisions exported into one dir, the second older than the
    first, as when a work dir's base moves back: only the files whose
    bytes differ get a new time, so the build redoes exactly those."""

    def git(self, repo, *args):
        env = dict(os.environ, GIT_AUTHOR_DATE="2001-01-01T00:00:00Z",
                   GIT_COMMITTER_DATE="2001-01-01T00:00:00Z")
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             *args], cwd=repo, env=env, check=True,
            capture_output=True).stdout.decode().strip()

    def commit(self, repo, files):
        for name, text in files.items():
            path = os.path.join(repo, name)
            if text is None:
                os.remove(path)
            else:
                with open(path, "w") as f:
                    f.write(text)
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-q", "-m", "step")
        return self.git(repo, "rev-parse", "HEAD")

    def test_only_changed_files_move_forward(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = os.path.join(tmp, "repo")
            os.makedirs(repo)
            self.git(repo, "init", "-q")
            old = self.commit(repo, {"same.c": "1", "changed.c": "old",
                                     "gone.c": "x"})
            new = self.commit(repo, {"changed.c": "new", "gone.c": None})
            tree = os.path.join(tmp, "tree")
            path = lambda name: os.path.join(tree, name)  # noqa: E731
            with mock.patch.object(bench_pairs, "ROOT", repo):
                bench_pairs.export(new, tree)
                # The objects built from this export are newer than it.
                built = time.time() - 3600
                for name in ("same.c", "changed.c"):
                    os.utime(path(name), (built, built))
                bench_pairs.export(old, tree)
                self.assertEqual(os.path.getmtime(path("same.c")), built)
                self.assertGreater(os.path.getmtime(path("changed.c")),
                                   built)
                with open(path("changed.c")) as f:
                    self.assertEqual(f.read(), "old")
                self.assertTrue(os.path.isfile(path("gone.c")))
                bench_pairs.export(new, tree)
                self.assertFalse(os.path.exists(path("gone.c")))
                self.assertEqual(sorted(os.listdir(tree)),
                                 ["changed.c", "same.c"])


if __name__ == "__main__":
    unittest.main()
