#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload once.

    python3 perfbench/run.py --workload explore|public|cluster \
        --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths resolve against this
file). The build goes to $CARGO_TARGET_DIR when set, else .bench_build/,
as a Release CMake build of perfbench/CMakeLists.txt; build output goes to
stderr so that standard output carries only the benchmark's report, whose
last line is the JSON result. With --trace 1 the spans of the first 200
traced interactions are written as a Chrome trace under <build>/traces/.

Exit status: the benchmark's (0 correct, 1 wrong results), or 2 when the
engine sources are missing, the build fails or the arguments are bad.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("explore", "public", "cluster")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
             str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
