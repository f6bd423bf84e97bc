#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload od_large --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the mate_core sources under
src/ plus the benchmark program) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs rebuild
incrementally. Build output goes to stderr. The program's stdout is passed
through: a run_info line, then the result line (see README.md). Traces and
the saved lake files go to <build dir>/out. Exits non-zero when the sources are
missing, the build fails, a result is wrong, or the run overruns.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("od_large", "wt_serve", "lake_churn")
# A run must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_root):
    """Configures (once) and builds perfbench; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=0.0,
                        help="lake scale; 0 keeps the workload default")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.h")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 1
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale),
               "--out-dir", os.path.join(build_root, "out"),
               "--commit", source_id()]
    # A terminated run.py takes the benchmark program down with it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    sys.exit(main())
