#!/usr/bin/env python3
"""Benchmark entry point.

Builds the perfbench binary from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints its
result as the last line of stdout:

    python3 perfbench/run.py --workload road --seed 7 --seconds 14 --trace 0

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json; --trace 1
runs the workload twice, untraced and traced, prints the tracing overhead
of every end-to-end metric, writes the traced run's spans, and reports the
per-layer metrics. Exits non-zero without a result when the sources are
missing, the build fails, or the workload's inputs are not the pinned ones.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # every run of one call, after the build


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s/src" % ROOT)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "perfbench", "perfbench_stats_test"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    test = subprocess.run([os.path.join(build_dir, "perfbench_stats_test")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout[-4000:])
        fail("the benchmark's own math tests failed")
    return os.path.join(build_dir, "perfbench")


def run_once(binary, name, workload, seed, seconds, trace, work, deadline):
    """Runs the binary once; returns its result object."""
    out = os.path.join(work, "result.json")
    cmd = [binary,
           "--workload", name,
           "--dataset", workload["dataset"],
           "--scale", str(workload["scale"]),
           "--fingerprint", workload["fingerprint"],
           "--seed", str(seed),
           "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--pairs-per-request", str(workload["pairs_per_request"]),
           "--nominal-rps", str(workload["nominal_rps"]),
           "--high-rps", str(workload["high_rps"]),
           "--slo-ms", str(workload["slo_ms"]),
           "--work-dir", work,
           "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (name, RUN_BUDGET_S))
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("workload %s exited with code %d" % (name, proc.returncode))
    return load_json(out)


def checked_metrics(reported, wanted, what):
    """The reported metrics named in BENCHMARK.json, with matching units."""
    metrics = {}
    for spec in wanted:
        metric = reported.get(spec["name"])
        if metric is None or metric["unit"] != spec["unit"]:
            fail("%s metric %s missing or not in %s" %
                 (what, spec["name"], spec["unit"]))
        if metric["value"] is None:
            fail("%s metric %s was not measured" % (what, spec["name"]))
        metrics[spec["name"]] = metric
    return metrics


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    workload = config["workloads"][args.workload]
    work = os.path.join(target, "work", "%s-%d-%d" %
                        (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)

    runs = []
    deadline = time.monotonic() + RUN_BUDGET_S
    for traced in ([False, True] if args.trace else [False]):
        run_dir = os.path.join(work, "traced" if traced else "untraced")
        runs.append(run_once(binary, args.workload, workload, args.seed,
                             args.seconds, traced, run_dir, deadline))
    last = runs[-1]
    print("inputs: workload %s, n=%d, m=%d, fingerprint %s, seed %d, "
          "nproc %d, %s build" %
          (args.workload, last["n"], last["m"], last["fingerprint"],
           args.seed, last["nproc"], last["build_type"]))
    for run in runs:
        print("operations: %d attempted, %d failed (share %.3g)" %
              (run["attempted"], run["failed"], run["failed_share"]))
        for note in run["notes"]:
            print("FAILED: " + note)

    if args.trace:
        untraced = checked_metrics(runs[0]["metrics"], bench["end_to_end"],
                                   "end-to-end")
        traced = checked_metrics(runs[1]["metrics"], bench["end_to_end"],
                                 "end-to-end")
        overhead = {}
        for name, metric in untraced.items():
            base = metric["value"]
            overhead[name] = {
                "untraced": base,
                "traced": traced[name]["value"],
                "overhead": (traced[name]["value"] / base - 1.0
                             if base else None),
                "unit": metric["unit"]}
        print("tracing overhead: " + json.dumps(overhead, sort_keys=True))
        print("spans: " + os.path.join(work, "traced", "spans.jsonl"))
        metrics = checked_metrics(last["per_layer"], bench["per_layer"],
                                  "per-layer")
    else:
        metrics = checked_metrics(last["metrics"], bench["end_to_end"],
                                  "end-to-end")
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
