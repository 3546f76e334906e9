#!/usr/bin/env python3
"""Builds and runs the mlprov benchmark.

    python3 perfbench/run.py --workload replay --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/perfbench.cc against the repository's libraries under
.bench_build/; later runs rebuild incrementally. The perfbench binary prints
human-readable lines and a final "RESULT <json>" line; this script passes
the former through and ends with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's "end_to_end" list (--trace 0) or its
"per_layer" list (--trace 1). The full result (every metric, plus the
host and input fingerprint) is kept in .bench_build/results/. The exit
code is non-zero when the build fails, a listed metric is missing, or any
output differs from its reference.

--workload all runs the three workloads in turn; --pipelines and
--corrupt-reference exist for the benchmark's own tests.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("replay", "fleet", "durable_lineage")
# A run is killed after this allowance plus twice --seconds: set-up takes
# up to about 40 s, and the last pass runs past --seconds.
RUN_TIMEOUT_BASE_S = 140


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds perfbench; build output goes to stderr.

    The compiler's temporary files go under .bench_build/ too, so the
    benchmark writes nothing outside its checkout.
    """
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, env=env)
            if configure.returncode != 0:
                return False
        jobs = str(max(1, os.cpu_count() or 1))
        made = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
             jobs], stdout=sys.stderr, stderr=sys.stderr, env=env)
        return made.returncode == 0 and os.path.exists(BINARY)


def run_workload(args, workload):
    """Runs one workload; returns (exit code, parsed RESULT or None)."""
    command = [
        BINARY, "--workload=" + workload, "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
        "--work_dir=" + os.path.join(BUILD_ROOT, "work"),
    ]
    if args.trace:
        command.append("--spans_out=" + os.path.join(
            BUILD_ROOT, "spans", "%s-seed%d.json" % (workload, args.seed)))
    if args.pipelines:
        command.append("--pipelines=%d" % args.pipelines)
    if args.corrupt_reference:
        command.append("--corrupt_reference=1")
    result = None
    try:
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
    except OSError as error:
        log("error: cannot start %s: %s" % (BINARY, error))
        return 1, None
    timeout_s = RUN_TIMEOUT_BASE_S + 2 * args.seconds
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    sys.stdout.flush()
    if code < 0:
        log("error: %s ended by signal %d (a run is killed after %g s)" %
            (workload, -code, timeout_s))
        return 1, None
    if result is not None:
        os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
        path = os.path.join(BUILD_ROOT, "results", "%s-seed%d-trace%d.json" %
                            (workload, args.seed, args.trace))
        with open(path, "w") as out:
            json.dump(result, out, indent=1)
    return code, result


def select_metrics(result, wanted):
    """The listed metrics, or None (with a message) if one is missing."""
    picked = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log("error: metric %s [%s] missing from the %s result" %
                (spec["name"], spec["unit"], result["workload"]))
            return None
        picked[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return picked


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pipelines", type=int, default=0)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        log("error: cannot read %s: %s" % (spec_path, error))
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build():
        log("error: build failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    exit_code = 0
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        code, result = run_workload(args, workload)
        if result is None:
            log("error: %s printed no result (exit %d)" % (workload, code))
            return 1
        picked = select_metrics(result, wanted)
        if picked is None:
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        if code != 0 or result["failed"] > 0:
            exit_code = 1
        if len(workloads) == 1:
            metrics = picked
        else:
            print("%s: %s" % (workload, json.dumps(picked)))
            for name, value in picked.items():
                metrics[workload + "." + name] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
