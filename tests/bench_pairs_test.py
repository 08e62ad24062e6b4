#!/usr/bin/env python3
"""Pins tools/bench_pairs.py on a throwaway git repository whose benchmark
command is a fake run.py that prints fixed JSON.

    python3 tests/bench_pairs_test.py path/to/tools/bench_pairs.py

The parent commit's fake reports estimate_ms 10 + seed / 10, evals_per_s
100, peak_rss_mb 50 and setup_s seed; the working tree's reports
estimate_ms 8 + seed / 10, evals_per_s 60, peak_rss_mb 52 and setup_s
seed + 0.1. So estimate_ms improves on every pair, evals_per_s regresses
past its 25% bound, peak_rss_mb moves 4%, inside its 10% bound, and
setup_s spreads wider than its bound across seeds, so it is unresolved.
Every fake run appends its side and arguments to a log, which pins the
alternating order.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = None

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 3,
    "workloads": [{"name": "w1"}],
    "end_to_end": [
        {"name": "estimate_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}

FAKE_RUN = """\
import argparse, json, os
p = argparse.ArgumentParser()
p.add_argument("--workload"); p.add_argument("--seed", type=int)
p.add_argument("--seconds"); p.add_argument("--trace")
a = p.parse_args()
with open(os.environ["FAKE_RUN_LOG"], "a") as log:
    log.write("{side} %s %d %s %s\\n" % (a.workload, a.seed, a.seconds, a.trace))
print("build and gate chatter")
print(json.dumps({{"correct": True, "attempted": 10, "failed": {failed},
    "metrics": {{
        "estimate_ms": {{"value": {estimate} + a.seed / 10, "unit": "ms"}},
        "evals_per_s": {{"value": {evals}, "unit": "1/s"}},
        "peak_rss_mb": {{"value": {rss}, "unit": "MB"}},
        "setup_s": {{"value": a.seed + {setup}, "unit": "s"}}}}}}))
"""


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, "-c", "user.name=t", "-c",
                           "user.email=t@example.com"] + list(args),
                          check=True, capture_output=True, text=True).stdout.strip()


def write_fake(repo, **values):
    os.makedirs(os.path.join(repo, "perfbench"), exist_ok=True)
    with open(os.path.join(repo, "perfbench", "run.py"), "w") as f:
        f.write(FAKE_RUN.format(**values))


class BenchPairsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.repo = os.path.join(self.tmp.name, "repo")
        self.log = os.path.join(self.tmp.name, "runs.log")
        os.makedirs(self.repo)
        git(self.repo, "init", "-q")
        with open(os.path.join(self.repo, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f)
        write_fake(self.repo, side="parent", estimate=10, evals=100, rss=50,
                   setup=0, failed=0)
        git(self.repo, "add", "-A")
        git(self.repo, "commit", "-q", "-m", "parent")
        self.parent = git(self.repo, "rev-parse", "HEAD")
        # The change stays uncommitted: the tool measures the working tree.
        write_fake(self.repo, side="change", estimate=8, evals=60, rss=52,
                   setup=0.1, failed=1)

    def tearDown(self):
        self.tmp.cleanup()

    def run_tool(self, pairs):
        env = dict(os.environ, FAKE_RUN_LOG=self.log)
        return subprocess.run(
            [sys.executable, TOOL, self.parent, "--workload", "w1", "--pairs",
             str(pairs)], cwd=self.repo, env=env, capture_output=True, text=True)

    def test_writes_paired_medians_and_verdicts(self):
        proc = self.run_tool(4)
        # evals_per_s regressed past its bound, so the tool exits 1.
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        with open(os.path.join(self.repo, "BENCH_w1.json")) as f:
            report = json.load(f)
        self.assertEqual(report["parent"]["commit"], self.parent)
        self.assertEqual(report["change"]["commit"], self.parent)
        self.assertTrue(report["change"]["dirty"])
        self.assertEqual(report["seeds"], [1, 2, 3, 4])
        self.assertEqual(report["seconds"], 3)
        self.assertEqual(report["order"], [["parent", "change"], ["change", "parent"],
                                           ["parent", "change"], ["change", "parent"]])
        self.assertEqual(report["failed_share"], {"parent": 0.0, "change": 0.1})

        est = report["metrics"]["estimate_ms"]
        self.assertEqual(est["parent"]["values"], [10.1, 10.2, 10.3, 10.4])
        self.assertAlmostEqual(est["parent"]["median"], 10.25)
        self.assertAlmostEqual(est["parent"]["q1"], 10.175)
        self.assertAlmostEqual(est["parent"]["q3"], 10.325)
        self.assertAlmostEqual(est["change"]["median"], 8.25)
        self.assertEqual(est["pairs_won"], 4)
        self.assertAlmostEqual(est["delta_pct"], -100 * 2 / 10.25)
        self.assertEqual(est["verdict"], "improved")

        evals = report["metrics"]["evals_per_s"]
        self.assertEqual(evals["pairs_won"], 0)
        self.assertEqual(evals["verdict"], "regressed")

        rss = report["metrics"]["peak_rss_mb"]
        self.assertEqual(rss["pairs_won"], 0)
        self.assertEqual(rss["verdict"], "within-bound")

        setup = report["metrics"]["setup_s"]
        self.assertAlmostEqual(setup["parent_iqr"], 1.5)
        self.assertEqual(setup["verdict"], "unresolved")

        # The runs alternate which side goes first, seed by seed, with the
        # spec's run_seconds and no trace.
        with open(self.log) as f:
            runs = [line.split() for line in f]
        self.assertEqual([(r[0], r[2]) for r in runs],
                         [("parent", "1"), ("change", "1"), ("change", "2"),
                          ("parent", "2"), ("parent", "3"), ("change", "3"),
                          ("change", "4"), ("parent", "4")])
        self.assertTrue(all(r[1] == "w1" and float(r[3]) == 3 and r[4] == "0"
                            for r in runs))
        # The temporary worktree is gone.
        worktrees = git(self.repo, "worktree", "list", "--porcelain")
        self.assertEqual(worktrees.count("worktree "), 1)

    def test_own_reports_do_not_dirty_the_tree(self):
        # A tracked root BENCH_*.json is the tool's own output (a run of
        # another workload rewrote it), so alone it leaves the tree clean.
        other = os.path.join(self.repo, "BENCH_other.json")
        with open(other, "w") as f:
            f.write("{}\n")
        git(self.repo, "add", "-A")
        git(self.repo, "commit", "-q", "-m", "change")
        with open(other, "w") as f:
            f.write('{"rewritten": true}\n')
        self.run_tool(1)
        with open(os.path.join(self.repo, "BENCH_w1.json")) as f:
            report = json.load(f)
        self.assertNotEqual(report["change"]["commit"], self.parent)
        self.assertFalse(report["change"]["dirty"])

    def test_a_single_pair_has_no_spread(self):
        proc = self.run_tool(1)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        with open(os.path.join(self.repo, "BENCH_w1.json")) as f:
            est = json.load(f)["metrics"]["estimate_ms"]
        # One pair: the parent's IQR is 0, the pair is won, the gap is real.
        self.assertEqual(est["parent"]["q1"], est["parent"]["q3"])
        self.assertEqual(est["verdict"], "improved")


if __name__ == "__main__":
    TOOL = os.path.abspath(sys.argv.pop(1))
    unittest.main()
