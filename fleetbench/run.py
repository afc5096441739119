#!/usr/bin/env python3
"""Build and run the fleet serving benchmark.

    python3 fleetbench/run.py --workload hit_heavy --seed 1 --seconds 25 --trace 0
    python3 fleetbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only check the build is current. Build output goes to
stderr, so the benchmark's last stdout line stays its JSON result. Exits
non-zero, printing no result, when the repository sources are missing or
the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "cloud", "plan_service.hpp")):
        sys.exit("fleetbench: repository sources not found next to %s" % HERE)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "fleetbench",
                    "fleetbench_selftest"], stdout=sys.stderr, check=True)


def main(argv):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "fleetbench")
    try:
        build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("fleetbench: build failed: %s" % err)
    if argv == ["--self-test"]:
        binary, args = "fleetbench_selftest", []
    else:
        binary, args = "fleetbench", argv
    try:
        done = subprocess.run([os.path.join(build_dir, binary)] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
