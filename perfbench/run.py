#!/usr/bin/env python3
"""Builds and runs the end-to-end mapping benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tig-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds `perfbench/` (which pulls in the
library sources from `src/`) into `.bench_build/perfbench`; later calls
rebuild incrementally.  Build output goes to stderr, so the last line of
stdout is always match_perfbench's JSON result.  Exits 2 without a result when
the library sources are missing or the arguments are malformed.
"""

import argparse
import fcntl
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "match_perfbench"
WORKLOADS = ("tig-solve", "dag-solve", "serve-cached")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT} (expected CMakeLists.txt and src/)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    # One build at a time per checkout: concurrent runs wait for the lock.
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "match_perfbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}", 1)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("MATCH_GIT_SHA", "unknown")


def source_digest():
    """sha256 over the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    cmd = [str(BINARY)]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
