#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The harness and the real kgeval-server are
built from source into .bench_build/perfbench (incrementally), then one
workload runs; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the sources are missing, the build fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no kgeval sources next to {HERE}: nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        )
    steps.append(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "kgeval-server"]
    )
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "kgeval", "kgeval-server")


def source_id():
    """Commit id when the tree is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_harness(binary, server, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        binary,
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={1 if trace else 0}",
        f"--server={server}",
        f"--work-dir={work}",
        f"--cache-dir={os.path.join(BUILD, 'models')}",
        f"--trace-file={os.path.join(BUILD, 'traces', f'{workload}-seed{seed}.jsonl')}",
        f"--commit={source_id()}",
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def self_check(binary, server):
    """Tiny presets, every workload, both modes: every registered metric is
    emitted with its unit, the registry matches BENCHMARK.json, and every
    correctness gate ran and passed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    registry = json.loads(subprocess.check_output([binary, "--list"], text=True))
    problems = []
    for key in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")} for m in spec[key]]
        if declared != registry[key]:
            problems.append(f"{key} in BENCHMARK.json differs from the harness registry")
    if [w["name"] for w in spec["workloads"]] != registry["workloads"]:
        problems.append("workloads in BENCHMARK.json differ from the harness")
    gates = {"scalar_rank_parity", "adaptive_deterministic", "estimate_repeatable",
             "sweep_matches_direct", "served_parity"}
    for workload in registry["workloads"]:
        for trace in (0, 1):
            code, lines = run_harness(binary, server, workload, 7, 4, trace, tiny=True)
            result = json.loads(lines[-1]) if lines else {}
            expected = registry["per_layer" if trace else "end_to_end"]
            label = f"{workload} trace={trace}"
            if code != 0 or not result.get("correct") or result.get("failed"):
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            units = {n: m.get("unit") for n, m in result["metrics"].items()}
            if units != {m["name"]: m["unit"] for m in expected}:
                problems.append(f"{label}: metric names/units differ from the registry")
            ran = {l.split()[1] for l in lines if l.startswith("gate ") and " pass " in l}
            if not gates <= ran:
                problems.append(f"{label}: gates not run: {sorted(gates - ran)}")
            print(f"self-check {label}: {len(units)} metrics, gates {sorted(ran)}")
    for p in problems:
        print(f"self-check FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    binary, server = build()
    if args.self_check:
        sys.exit(self_check(binary, server))
    if not args.workload:
        fail("--workload is required")
    code, lines = run_harness(binary, server, args.workload, args.seed, args.seconds,
                              args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
