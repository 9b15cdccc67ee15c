#!/usr/bin/env python3
"""Build and run one workload of the performance ledger.

    python3 perfledger/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds
pg_ledger (the repository's library plus perfledger/src) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
check that the build is current. --obs off builds and runs a separate
tree with -DPG_OBS=OFF.

Build output goes to stderr. stdout carries the metric lines and, last,
one JSON object {correct, attempted, failed, metrics}. Exit codes: 0 ok,
1 a correctness check failed, 2 the build or the run could not proceed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cold", "sanitize", "solve", "serve_mixed")


def fail(message):
    print(f"perfledger: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, obs, env):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the repository root: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPG_OBS=" + ("ON" if obs == "on" else "OFF")])
    steps.append(["cmake", "--build", build_dir, "--target", "pg_ledger",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pg_ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--obs", choices=("on", "off"), default="on")
    args = parser.parse_args()

    os.chdir(ROOT)
    # Hidden inputs: every PG_ variable (PG_BENCH_*, PG_CACHE_DIR,
    # PG_FAULTS, PG_SIMD, ...) changes what the program computes.
    cleared = sorted(k for k in os.environ if k.startswith("PG_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PG_")}
    if cleared:
        print("perfledger: cleared " + ", ".join(cleared), file=sys.stderr)

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Keep the compiler's and the program's temporary files in the tree too.
    env["TMPDIR"] = os.path.abspath(os.path.join(base, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(os.path.join(base, "ledger-obs-" + args.obs), args.obs, env)
    run = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--specs", os.path.relpath(os.path.join(HERE, "specs")),
           "--reference", os.path.relpath(os.path.join(HERE, "reference")),
           "--work", os.path.join(base, "work-" + args.workload),
           "--out", os.path.join(base, "out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(run, env=env).returncode)


if __name__ == "__main__":
    main()
