#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper-analytics, serve-genealogy or serve-churn-1m; `all` runs the
three one after another, each in its own process. The first run configures
and builds perfbench/ (a CMake package that compiles the engine from ../src)
in Release mode under .bench_build/; later runs only re-check the build.
Build output goes to stderr, so the last stdout line is the result JSON of
the (last) workload. The exit code is non-zero when the sources are missing,
the build fails, or a run fails its correctness checks.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["paper-analytics", "serve-genealogy", "serve-churn-1m"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(root, build_dir, env):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workdir, args, workload, env):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        return fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        return fail("engine sources (src/) not found; run from the root of "
                    "a source checkout")
    out_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    workdir = os.path.join(out_root, "run")
    # Compiler and run temporaries stay inside the checkout too.
    tmpdir = os.path.join(out_root, "tmp")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmpdir)
    try:
        binary = build(root, build_dir, env)
    except (subprocess.CalledProcessError, OSError) as err:
        return fail(f"build failed: {err}")

    rc = 0
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        rc = run_workload(binary, workdir, args, workload, env) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
