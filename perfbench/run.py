#!/usr/bin/env python3
"""Build and run the wavefabric benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serial-sweep --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. It builds perfbench/ against the
simulator sources in src/ into $CARGO_TARGET_DIR (default .bench_build),
then runs the wsbench driver, whose last stdout line is the JSON result.
For store-replay it first populates a store with a separate, untimed
wsbench process of the same build. Exit status: 0 when every point is
correct, 1 when some point failed its check, 2 on a usage or build
error (no result line then).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial-sweep", "splash-grid", "store-replay")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (re)build wsbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources not found at %s/src" % ROOT,
              file=sys.stderr)
        sys.exit(2)
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "4",
                  "--target", "wsbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            sys.exit(2)
    return os.path.join(cmake_dir, "wsbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--tiny", action="store_true",
                   help="two-design grid (self-test smoke runs)")
    p.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    return p.parse_args(argv)


def bench_command(bench, args, work):
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workers", str(args.workers), "--golden-dir", args.golden_dir,
           "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return cmd


def populate(bench, args, work):
    """The untimed step that fills the store store-replay reads."""
    store = os.path.join(work, "populated-%d" % os.getpid())
    shutil.rmtree(store, ignore_errors=True)
    cmd = [bench, "--populate", store, "--seed", str(args.seed),
           "--workers", str(min(4, os.cpu_count() or 1)),
           "--golden-dir", args.golden_dir]
    if args.tiny:
        cmd.append("--tiny")
    # A golden mismatch (1) still leaves a complete store; the replay
    # run then reports the failed points itself.
    rc = subprocess.run(cmd, stdout=sys.stderr).returncode
    if rc not in (0, 1):
        shutil.rmtree(store, ignore_errors=True)
        sys.exit(2)
    return store


def main(argv):
    args = parse_args(argv)
    bench = build()
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = bench_command(bench, args, work)
    store = None
    try:
        if args.workload == "store-replay":
            store = populate(bench, args, work)
            cmd += ["--store", store]
        return subprocess.run(cmd).returncode
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
