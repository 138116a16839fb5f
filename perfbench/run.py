#!/usr/bin/env python3
"""Builds the paper-scale day benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload day-ls --seed 0 --seconds 30 --trace 0

The library and the benchmark are compiled (Release) into .bench_build/ at
the repository root; scratch outputs (the rush workload's order trace and
the traced day's Chrome trace JSON) go to .bench_out/. Build output goes to
stderr, so the last line of stdout is day_bench's JSON result. Exits with
the build's or the benchmark's non-zero code on failure.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "day_bench",
                    "-j", JOBS], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 3
    binary = os.path.join(BUILD_DIR, "day_bench")
    result = subprocess.run([binary] + sys.argv[1:] + ["--out-dir", OUT_DIR])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
