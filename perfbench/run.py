#!/usr/bin/env python3
"""Repo benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the benchmark binary) into
.bench_build/perfbench on first use, runs one workload, and relays the
binary's report. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (see BENCHMARK.json).

On top of the binary's own correctness gate this script
  * checks that the metric names and units match BENCHMARK.json exactly;
  * keeps a ledger of the exact work counters per (source digest, workload,
    seed, trace) under .bench_build/perfbench/counters and fails the run when a
    rerun of the same code and seed does not reproduce them bit for bit;
  * in traced runs, writes the Chrome trace next to the build and validates
    it with scripts/trace_check.py.

Exits non-zero, without printing a result, when the build or the run fails.
Stdlib only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
POST_BUILD_SETTLE_S = 20
TRACE_REQUIRED = "bench.run,bench.check"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures on first use and builds incrementally; True when it relinked the binary."""
    os.makedirs(BUILD, exist_ok=True)
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, check=False)
            except OSError as err:
                die(f"cannot run {cmd[0]}: {err}")
            if done.returncode != 0:
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(f"build failed ({' '.join(cmd)}); see {log_path}")
    return before != os.path.getmtime(BINARY)


def source_digest():
    """sha256 over the library and benchmark sources (the tree is not a git checkout)."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        die(f"cannot read {path}: {err}")
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_counters(counters, digest, workload, seed, trace):
    """Returns a failure message, or None when the counters repeat (or are new)."""
    ledger_dir = os.path.join(BUILD, "counters")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, f"{digest[:16]}-{workload}-{seed}-t{trace}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            previous = json.load(f)
        if previous != counters:
            changed = sorted(k for k in set(previous) | set(counters)
                             if previous.get(k) != counters.get(k))
            return "exact work counters differ from an earlier run of this seed: " + \
                ", ".join(f"{k} {previous.get(k)} -> {counters.get(k)}" for k in changed[:8])
        return None
    with open(path, "w", encoding="utf-8") as f:
        json.dump(counters, f, sort_keys=True)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "opf", "tracking.hpp")):
        die(f"library sources not found under {ROOT}/src")
    expected = declared_metrics(args.trace == 1)
    if build():
        # A fresh build loads every core for a minute; on a shared VM the
        # first timed run after it measured 2-4x slow. Let the host settle.
        time.sleep(POST_BUILD_SETTLE_S)

    digest = source_digest()
    trace_path = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--source-digest={digest}", f"--git-sha={git_sha()}"]
    if args.trace:
        cmd.append(f"--trace-out={trace_path}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        die(f"perfbench exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        die("perfbench printed no result line")

    failures = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"unexpected result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        die(f"metrics do not match BENCHMARK.json (missing {missing}, extra {extra}, "
            f"or a unit differs)")

    counters = {}
    for line in lines:
        if line.startswith("# counters "):
            counters = json.loads(line[len("# counters "):])
    problem = check_counters(counters, digest, args.workload, args.seed, args.trace)
    if problem:
        failures.append(problem)

    if args.trace:
        checker = os.path.join(ROOT, "scripts", "trace_check.py")
        check = subprocess.run([sys.executable, checker, trace_path,
                                f"--require={TRACE_REQUIRED}"],
                               capture_output=True, text=True, check=False, timeout=120)
        for line in check.stdout.splitlines()[-3:]:
            lines.insert(-1, f"# {line}")
        if check.returncode != 0:
            failures.append("scripts/trace_check.py rejected the trace")

    for failure in failures:
        lines.insert(-1, f"# CHECK FAILED: {failure}")
    if failures:
        result["correct"] = False
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
