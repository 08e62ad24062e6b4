#!/usr/bin/env python3
"""Paired benchmark runs of the working tree against a parent commit.

    python3 tools/bench_pairs.py PARENT_REF --workload W --pairs N

Run from the repository root. The parent is checked out into a temporary
`git worktree` and removed afterwards. Both trees run the benchmark command
of their own BENCHMARK.json (`perfbench/run.py`), which builds each tree
from source, for the working tree's `run_seconds`. Pair i runs seed i on
both sides, one after the other; the parent goes first on odd seeds and
the change on even ones, so neither side always runs on a warmer or a
busier machine.

The result goes to BENCH_<W>.json at the root. For each end-to-end metric
of the working tree's BENCHMARK.json it holds both sides' values by seed,
their medians and quartiles, the pairs the change won, and a verdict:

  regressed     the change's median is worse than the parent's by more
                than the metric's bound (a fraction of the parent median);
  improved      the change won at least 90% of the pairs and its median
                beats the parent's by more than the parent's interquartile
                range;
  unresolved    neither, but the parent's interquartile range is wider
                than the bound, so the runs cannot show that the metric
                held, and not every change run beats every parent run;
  within-bound  none of these.

A metric absent from either side's runs is "missing". The report also
records each side's failed share of attempted operations. The exit status
is 1 when a run fails or is incorrect, or a metric regressed or is missing,
else 0.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, command, workload, seed, seconds):
    """One benchmark run in `root`; returns its result object."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-4000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    return result


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(spec_metric, parent_values, change_values):
    better_lower = spec_metric["better"] == "lower"
    out = {"unit": spec_metric["unit"], "better": spec_metric["better"],
           "bound": spec_metric["bound"]}
    sides = {}
    for side, values in (("parent", parent_values), ("change", change_values)):
        present = [v for v in values if v is not None]
        entry = {"values": values}
        if present:
            q1, median, q3 = quartiles(present)
            entry.update({"median": median, "q1": q1, "q3": q3})
        sides[side] = entry
    out.update(sides)
    pairs = [(p, c) for p, c in zip(parent_values, change_values)
             if p is not None and c is not None]
    won = sum(1 for p, c in pairs if (c < p if better_lower else c > p))
    out["pairs"] = len(pairs)
    out["pairs_won"] = won
    if "median" not in sides["parent"] or "median" not in sides["change"]:
        out["verdict"] = "missing"
        return out
    parent_median = sides["parent"]["median"]
    change_median = sides["change"]["median"]
    gain = parent_median - change_median if better_lower else change_median - parent_median
    out["delta_pct"] = (100.0 * (change_median - parent_median) / parent_median
                        if parent_median else None)
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    out["parent_iqr"] = parent_iqr
    bound = spec_metric["bound"] * abs(parent_median)
    parent_present = [p for p in parent_values if p is not None]
    change_present = [c for c in change_values if c is not None]
    if better_lower:
        separated = max(change_present) < min(parent_present)
    else:
        separated = min(change_present) > max(parent_present)
    if -gain > bound:
        out["verdict"] = "regressed"
    elif pairs and won >= math.ceil(0.9 * len(pairs)) and gain > parent_iqr:
        out["verdict"] = "improved"
    elif parent_iqr > bound and not separated:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within-bound"
    return out


def failed_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    parent_commit = git(root, "rev-parse", "--verify", args.parent_ref + "^{commit}")
    change_commit = git(root, "rev-parse", "HEAD")
    # The root BENCH_*.json files are this tool's own output: a run of one
    # workload must not mark the next workload's run dirty.
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no",
                     "--", ":(exclude,glob)BENCH_*.json"))
    spec = load_spec(root)
    seconds = spec["run_seconds"]

    tmp = tempfile.mkdtemp(prefix="bench_pairs-")
    parent_root = os.path.join(tmp, "parent")
    git(root, "worktree", "add", "--detach", parent_root, parent_commit)
    try:
        command = {"parent": load_spec(parent_root)["command"],
                   "change": spec["command"]}
        roots = {"parent": parent_root, "change": root}
        results = {"parent": [], "change": []}
        order = []
        for seed in range(1, args.pairs + 1):
            sides = ("parent", "change") if seed % 2 == 1 else ("change", "parent")
            order.append(list(sides))
            for side in sides:
                result = run_once(roots[side], command[side], args.workload, seed,
                                  seconds)
                results[side].append(result)
                print(f"pair {seed} {side}: correct={result.get('correct')} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in sorted(result["metrics"].items())),
                      flush=True)
    finally:
        subprocess.run(["git", "-C", root, "worktree", "remove", "--force", parent_root],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", root, "worktree", "prune"], capture_output=True)

    def values(side, name):
        return [r["metrics"].get(name, {}).get("value") for r in results[side]]

    metrics = {m["name"]: summarize(m, values("parent", m["name"]),
                                    values("change", m["name"]))
               for m in spec["end_to_end"]}
    report = {
        "workload": args.workload,
        "parent": {"ref": args.parent_ref, "commit": parent_commit},
        "change": {"commit": change_commit, "dirty": dirty},
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "order": order,
        "correct": {side: [bool(r.get("correct")) for r in results[side]]
                    for side in results},
        "failed_share": {side: failed_share(results[side]) for side in results},
        "metrics": metrics,
    }
    out_path = os.path.join(root, f"BENCH_{args.workload}.json")
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")

    print(f"{'metric':<22} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'won':>6}  verdict")
    for name, m in metrics.items():
        parent_median = m["parent"].get("median", float("nan"))
        change_median = m["change"].get("median", float("nan"))
        delta = m.get("delta_pct")
        print(f"{name:<22} {parent_median:>12.4g} {change_median:>12.4g} "
              f"{(f'{delta:+.1f}%' if delta is not None else '-'):>8} "
              f"{m['pairs_won']:>3}/{m['pairs']:<2}  {m['verdict']}")
    print(f"wrote {out_path}")
    all_correct = all(all(v) for v in report["correct"].values())
    regressed = any(m["verdict"] in ("regressed", "missing")
                    for m in metrics.values())
    return 0 if all_correct and not regressed else 1


if __name__ == "__main__":
    sys.exit(main())
