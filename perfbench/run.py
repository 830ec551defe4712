#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr, so
the last line of stdout is the harness's JSON result.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_geolife", "serve_probe", "serve_window_wal")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no dbscout sources next to perfbench/")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            sys.exit("perfbench: refusing to measure a non-Release build")
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "perfbench",
                    "dbscout_serve"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "dbscout_serve"),
           "--work-dir", work_dir]
    # Own process group, so a timeout also reaches the servers it spawned.
    harness = subprocess.Popen(cmd, start_new_session=True)
    # A SIGTERM to this script unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        rc = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    finally:
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
