#!/usr/bin/env python3
"""Self-test of the benchmark on the two-design grid (a minute or two).

    python3 perfbench/selftest.py

Run it from the repository root; it builds like run.py and writes only
under $CARGO_TARGET_DIR (default .bench_build). It checks that:
  - every metric BENCHMARK.json names is printed with its unit and is
    finite, on every workload, untraced and traced;
  - the trace file opens as a Chrome trace, named child spans cover at
    least 95 % of the point spans, and the traced run agrees with the
    untraced one (a disagreement would show as failed points);
  - simulated and store counts repeat exactly between runs and between
    1 and 2 workers;
  - a perturbed golden digest gives failed points and a nonzero exit;
  - a truncated replay record lands in store.rejected and fails its
    point.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
FAILURES = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def bench(bench_path, workload, trace, seed=1, workers=2, golden=None,
          store=None):
    """Run wsbench on the tiny grid; returns (exit code, result dict)."""
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--workers", str(workers), "--tiny"]
                          + (["--golden-dir", golden] if golden else []))
    work = os.path.join(run.build_dir(), "selftest", "work")
    os.makedirs(work, exist_ok=True)
    cmd = run.bench_command(bench_path, args, work)
    if workload == "store-replay":
        cmd += ["--store", store or run.populate(bench_path, args, work)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def metrics_ok(result, names, label):
    missing = []
    for spec in names:
        m = result["metrics"].get(spec["name"])
        if (m is None or m.get("unit") != spec["unit"]
                or not isinstance(m.get("value"), (int, float))
                or not math.isfinite(m["value"])):
            missing.append(spec["name"])
    check(not missing and len(result["metrics"]) == len(names),
          "%s: every metric printed with its unit and finite%s"
          % (label, " (bad: %s)" % ", ".join(missing) if missing else ""))


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")}


def trace_ok(workload, result):
    path = os.path.join(run.build_dir(), "traces",
                        "%s-seed1.json" % workload)
    try:
        events = json.load(open(path))["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        well_formed = bool(spans) and all(
            all(k in e for k in ("name", "ts", "dur", "pid", "tid", "args"))
            for e in spans)
    except (OSError, ValueError, KeyError):
        well_formed = False
    check(well_formed, "%s: trace is a well-formed Chrome trace" % workload)
    coverage = result["metrics"]["trace.coverage"]["value"]
    check(coverage >= 0.95,
          "%s: child spans cover %.3f of point time" % (workload, coverage))


def main():
    bench_path = run.build()
    tmpdir = os.path.join(run.build_dir(), "selftest")
    shutil.rmtree(tmpdir, ignore_errors=True)
    os.makedirs(tmpdir)

    for workload in run.WORKLOADS:
        rc, plain = bench(bench_path, workload, 0)
        check(rc == 0 and plain and plain["correct"] and plain["failed"] == 0,
              "%s: untraced run correct" % workload)
        metrics_ok(plain, SPEC["end_to_end"], workload + " untraced")
        rc, traced = bench(bench_path, workload, 1)
        check(rc == 0 and traced and traced["correct"]
              and traced["failed"] == 0,
              "%s: traced run correct, digests equal to untraced" % workload)
        metrics_ok(traced, SPEC["per_layer"], workload + " traced")
        trace_ok(workload, traced)
        _, again = bench(bench_path, workload, 1, workers=1)
        check(again and counts(again) == counts(traced),
              "%s: counts repeat at 1 worker" % workload)

    # A perturbed golden: the first digest of seed 1 flipped.
    golden = os.path.join(tmpdir, "golden")
    os.makedirs(golden)
    lines = open(os.path.join(run.HERE, "golden", "seed-1.txt")).readlines()
    key, digest = lines[0].split()
    lines[0] = "%s %016x\n" % (key, int(digest, 16) ^ 1)
    open(os.path.join(golden, "seed-1.txt"), "w").writelines(lines)
    rc, result = bench(bench_path, "serial-sweep", 0, golden=golden)
    check(rc != 0 and result and not result["correct"]
          and result["failed"] > 0,
          "perturbed golden: failed points and a nonzero exit")

    # A truncated replay record.
    args = run.parse_args(["--workload", "store-replay", "--tiny"])
    store = run.populate(bench_path, args, tmpdir)
    records = sorted(
        os.path.join(d, f) for d, _, files in os.walk(store) for f in files
        if f.endswith(".json"))
    with open(records[0], "r+b") as f:
        f.truncate(os.path.getsize(records[0]) // 2)
    rc, result = bench(bench_path, "store-replay", 1, store=store)
    rejected = result["metrics"]["store.rejected"]["value"] if result else 0
    check(rc != 0 and rejected >= 1 and result["failed"] > 0,
          "truncated record: store.rejected %d, failed points %d"
          % (rejected, result["failed"] if result else 0))

    shutil.rmtree(tmpdir, ignore_errors=True)
    print("%d check(s) failed" % len(FAILURES) if FAILURES
          else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
