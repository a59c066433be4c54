#!/usr/bin/env python3
"""Entry point of the gkx wire-to-evaluator benchmark.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout. It builds the benchmark package
(perfbench/CMakeLists.txt, which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, defaulting to .bench_build/perfbench, then runs
one workload in its own process and passes its output through. The last
line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build logs go to standard error. Exits non-zero, without a result line,
when the sources are missing, the build fails or the run fails.

--selftest builds and runs the seed-stability check of the input generator
instead of a workload.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-hot", "eval-cold", "churn-durable")
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_revision():
    """git revision when available, plus a digest of every source file, so a
    result names the code it measured even outside a git repository."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0:
                rev = "git:" + git.stdout.strip() + " " + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def build(build_dir):
    """Configures once and builds (a no-op when up to date). Serialized by a
    lock file so concurrent invocations do not race on the build tree."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("perfbench: build step failed:", " ".join(cmd))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "service", "sharded_service.hpp")):
        log("perfbench: gkx sources not found under", os.path.join(ROOT, "src"))
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    if not build(build_dir):
        return 3

    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    cmd = [os.path.join(build_dir, "gkx_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_root, "perfbench-out"),
           "--rev", source_revision()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 4
    sys.stdout.write(run.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if run.returncode != 0:
        log("perfbench: gkx_perfbench exited with", run.returncode)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
