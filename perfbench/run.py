#!/usr/bin/env python3
"""Build and run the remus benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n> --seconds <s> --trace <0|1>]
    python3 perfbench/run.py --selftest     # every check catches its planted faults
    python3 perfbench/run.py --reference    # regenerate the README's reference figures

The first call configures and builds perfbench/CMakeLists.txt (the remus
library from src/ plus the benchmark binary) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("loopback_kv", "loopback_contended", "runtime_kv", "sim_kv", "sim_churn")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds; returns the binary's path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "remus_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "remus_perfbench")


def run_binary(binary, args, timeout):
    """Runs the benchmark binary, streaming its stdout; returns its exit code."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 1
    return proc.returncode


def capture(binary, args):
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("perfbench %s exited %d" % (" ".join(args), proc.returncode))
    return proc.stdout


def metrics(binary, workload, seed, extra, seconds=10):
    """One untraced run; returns its end-to-end metric values by name."""
    import json

    out = capture(binary, ["--workload", workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", "0", "--work-dir", work_dir()] + extra)
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s %s: outputs failed their checks" % (workload, extra))
    return {k: v["value"] for k, v in result["metrics"].items()}


def work_dir():
    return os.path.join(build_dir(), "perfbench-work")


def reference(binary):
    """Prints every reference figure of README.md as markdown."""
    seeds = (1, 2, 3)
    print("## sim_kv: one worker against the pool (ops_per_s, median of seeds %s)\n" % (seeds,))
    print("| workers | ops_per_s |\n|---|---|")
    nproc = os.cpu_count() or 1
    for workers, label in (("1", "1"), ("0", "the workload's pool (min(nproc, 2))"),
                           (str(nproc), "nproc = %d" % nproc)):
        vals = [metrics(binary, "sim_kv", s, ["--workers", workers])["ops_per_s"]
                for s in seeds]
        print("| %s | %.0f |" % (label, statistics.median(vals)))
        sys.stdout.flush()
    print("\n## sim_churn: WAL engine against the map store (median of seeds %s)\n" % (seeds,))
    print("| store | ops_per_s | verified_ops_per_s | peak_rss_mb |\n|---|---|---|---|")
    for store in ("wal", "map"):
        runs = [metrics(binary, "sim_churn", s, ["--store", store]) for s in seeds]
        print("| %s | %.0f | %.0f | %.1f |" % (
            store, statistics.median(r["ops_per_s"] for r in runs),
            statistics.median(r["verified_ops_per_s"] for r in runs),
            statistics.median(r["peak_rss_mb"] for r in runs)))
        sys.stdout.flush()
    print("\n## history.check_s against history size\n")
    sys.stdout.write(capture(binary, ["--reference-check-scaling", "--seed", "1"]))
    print("\n## The event queue after an idle clock jump (fault kept in sim_churn)\n")
    sys.stdout.write(capture(binary, ["--reference-idle-jump"]))
    print("\n## Host calibration: fixed spin work per thread\n")
    sys.stdout.write(capture(binary, ["--calibrate"]))
    return 0


def selftest(binary):
    """Planted faults against every check, and BENCHMARK.json against the
    metric tables the binary reports from."""
    import json

    code = run_binary(binary, ["--selftest"], 60)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    want = set()
    for kind in ("end_to_end", "per_layer"):
        want |= {(kind, m["name"], m["unit"]) for m in declared[kind]}
    got = {tuple(line.split()) for line in capture(binary, ["--list-metrics"]).splitlines()}
    if want != got:
        sys.stderr.write("BENCHMARK.json and the binary's metric tables differ: %s\n"
                         % sorted(want ^ got))
        return 1
    workloads = {w["name"] for w in declared["workloads"]}
    if not workloads <= set(WORKLOADS):
        sys.stderr.write("BENCHMARK.json names unknown workloads: %s\n"
                         % sorted(workloads - set(WORKLOADS)))
        return 1
    print("BENCHMARK.json matches the binary's %d metrics" % len(got))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.selftest or args.reference):
        ap.error("give --workload, --all, --selftest or --reference")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    if args.reference:
        return reference(binary)
    os.makedirs(work_dir(), exist_ok=True)
    code = 0
    for workload in WORKLOADS if args.all else (args.workload,):
        if args.all:
            print("## %s" % workload, flush=True)
        code |= run_binary(binary, ["--workload", workload, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--work-dir", work_dir()],
                           timeout=args.seconds * 4 + 60)
    return code


if __name__ == "__main__":
    sys.exit(main())
