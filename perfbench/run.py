#!/usr/bin/env python3
"""Runs one workload of the rfidclean benchmark.

    python3 perfbench/run.py --workload ingest|long_tag|query \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an rfidclean checkout. Builds the library, the
rfidclean_cli binary and the perfbench harness from source (CMake, Release)
into $CARGO_TARGET_DIR (default .bench_build), then runs the harness, which
generates the workload's inputs from the seed, measures for S seconds and
checks every output. Prints the harness's info line and, last, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1 (the span log goes to <build dir>/traces/).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds perfbench and rfidclean_cli."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                       "perfbench", "rfidclean_cli"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "rfidclean", "tools", "rfidclean_cli"))


def check_result(line, spec, trace):
    """Parses the harness's result line and checks it reports exactly the
    metrics (and units) BENCHMARK.json lists for this kind of run."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {line}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        print(f"run.py: metrics {sorted(set(got) ^ set(wanted))} or their "
              f"units differ from BENCHMARK.json", file=sys.stderr)
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT} is not an rfidclean checkout (no src/CMakeLists.txt)")
    with open(os.path.join(HERE, "registry.json")) as f:
        registry = json.load(f)
    workload = registry["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {sorted(registry['workloads'])}")
    seed = workload["default_seed"] if args.seed is None else args.seed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    harness, cli = build(build_dir)
    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [harness, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--cli", cli, "--work-dir", work_dir, "--trace-out",
               os.path.join(trace_dir, f"{args.workload}-seed{seed}.json")]
    for key, value in workload["generator"].items():
        command += ["--" + key.replace("_", "-"), str(value)]
    # Its own process group, so that a timeout also stops the CLI child the
    # harness may be waiting for.
    harness_run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                   start_new_session=True)
    try:
        stdout, _ = harness_run.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness_run.pid, signal.SIGKILL)
        harness_run.communicate()
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if harness_run.returncode != 0 or not lines:
        fail(f"harness exited {harness_run.returncode}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(check_result(lines[-1], spec, args.trace)))


if __name__ == "__main__":
    main()
