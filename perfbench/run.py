#!/usr/bin/env python3
"""Experiment-cell benchmark: build, run one workload, check, report.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload reorder-sn --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare A.json B.json

A run builds perfbench/ (Release) into .bench_build/, runs cell_bench,
prints every metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its
per_layer ones. Reports and span dumps go to .bench_out/. The exit
code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")

# Fingerprint fields that must agree for two results to be compared.
# The commit and the source digest are recorded, not compared: a
# comparison is usually between two commits.
COMPARED = ("cpu_model", "online_cpus", "affinity_cpus", "compiler",
            "build_type", "dchecks")
# Measured parallelism is noisy; a larger relative gap is a different
# host (or a differently loaded one).
PARALLELISM_TOLERANCE = 0.25
# cell_bench stops starting sweeps after --seconds; this caps the
# sweep in flight plus set-up.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @target; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j",
           str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def incomparable(a, b):
    """Fingerprint fields on which results @a and @b differ."""
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = [k for k in COMPARED if fa.get(k) != fb.get(k)]
    pa = fa.get("usable_parallelism", 0.0)
    pb = fb.get("usable_parallelism", 0.0)
    if abs(pa - pb) > PARALLELISM_TOLERANCE * max(pa, pb, 1e-9):
        diff.append("usable_parallelism")
    return diff


def previous_report(workload, exclude):
    """Most recent other report of @workload in .bench_out."""
    best = None
    for name in os.listdir(OUT):
        path = os.path.join(OUT, name)
        if (name.startswith(workload + "-s") and name.endswith(".json")
                and path != exclude):
            if best is None or os.path.getmtime(path) > os.path.getmtime(best):
                best = path
    return best


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")


def print_waterfall(report):
    layers = sorted({l for c in report["waterfall"] for l in c["self_s"]})
    print("waterfall: self seconds (share of the cell's wall time)")
    print(f"{'cell':16s} {'wall s':>8s} " +
          " ".join(f"{l:>17s}" for l in layers))
    totals = dict.fromkeys(layers, 0.0)
    wall = 0.0
    for cell in report["waterfall"]:
        row = []
        for l in layers:
            s = cell["self_s"].get(l, 0.0)
            totals[l] += s
            row.append(f"{s:9.4f} ({100 * s / cell['wall_s']:5.1f}%)")
        wall += cell["wall_s"]
        print(f"{cell['cell']:16s} {cell['wall_s']:8.3f} " + " ".join(row))
    print(f"{'sweep':16s} {wall:8.3f} " + " ".join(
        f"{totals[l]:9.4f} ({100 * totals[l] / wall:5.1f}%)" for l in layers))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    diff = incomparable(a, b)
    print("fingerprints: " +
          ("INCOMPARABLE (" + ", ".join(diff) + ")" if diff else "comparable"))
    for group in ("end_to_end", "per_layer"):
        ma, mb = a.get(group) or {}, b.get(group) or {}
        for name in ma:
            if name in mb:
                va, vb = ma[name]["value"], mb[name]["value"]
                rel = (vb - va) / va if va else float("nan")
                print(f"{name:28s} {va:12.6g} {vb:12.6g} {rel:+8.2%} "
                      f"{ma[name]['unit']}")
    return 1 if diff else 0


def selftest():
    if not build("perfbench_tests"):
        log("perfbench: build failed (GoogleTest installed?)")
        return 2
    return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    if not build("cell_bench"):
        log("perfbench: build failed")
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    report_path = os.path.join(OUT, stem + ".json")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json")
    cmd = [os.path.join(BUILD, "cell_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--report", report_path,
           "--spans", spans_path]
    if os.path.exists(report_path):
        os.remove(report_path)
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: cell_bench exceeded {RUN_TIMEOUT_S} s")
        return 3
    if code not in (0, 1) or not os.path.exists(report_path):
        log(f"perfbench: cell_bench failed with exit code {code}")
        return 2 if code in (0, 1) else code

    with open(report_path) as f:
        report = json.load(f)
    fp = report["fingerprint"]
    fp["commit"] = git_commit()
    fp["source_sha256"] = source_digest()
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)

    group = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    correct = code == 0 and report["failed"] == 0 and not report["failures"]
    for m in wanted:
        got = group.get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            log(f"perfbench: metric {m['name']} missing or malformed: {got}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"dataset={report['dataset']['id']} "
          f"|V|={report['dataset']['vertices']} "
          f"|E|={report['dataset']['edges']} "
          f"sweeps={len(report['sweep_s_samples'])}")
    print(f"host: {fp['cpu_model']}, {fp['online_cpus']} CPUs "
          f"({fp['affinity_cpus']} usable, measured parallelism "
          f"{fp['usable_parallelism']:.2f}), {fp['compiler']} "
          f"{fp['build_type']}, dchecks {'on' if fp['dchecks'] else 'off'}, "
          f"commit {fp['commit'][:12]}, sources {fp['source_sha256'][:12]}")
    prev = previous_report(args.workload, report_path)
    if prev is not None:
        with open(prev) as f:
            diff = incomparable(report, json.load(f))
        if diff:
            print(f"fingerprint: INCOMPARABLE with {os.path.basename(prev)} "
                  f"(differs in {', '.join(diff)})")
    print_metrics(report["end_to_end"])
    if args.trace:
        print_metrics(report["per_layer"])
        print_waterfall(report)
    print(f"checks: {report['failed']} of {report['attempted']} cells failed")
    for failure in report["failures"]:
        print(f"check failed: {failure}")
    print(f"report: {os.path.relpath(report_path, ROOT)}")

    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["reorder-sn", "replay-wg", "push-pull-wg"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--compare", nargs=2, metavar="REPORT",
                        help="compare two reports from .bench_out")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
