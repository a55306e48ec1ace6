#!/usr/bin/env python3
"""Repository benchmark: build mwbench from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload switch-fig3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
calls only let the build tool confirm it is current. The build log
and the harness's progress go to standard error. Standard output gets
one metadata line (host and build) and, last, the result object
printed by mwbench. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("switch-fig3", "torus-dor", "fatmesh-pdes4", "pcs-switch")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def read_first_line(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.readline().strip()
    except OSError:
        return "unknown"


def host_info():
    """The host fields tools/bench_kernel.sh records."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    turbo = "unknown"
    no_turbo = read_first_line("/sys/devices/system/cpu/intel_pstate/no_turbo")
    boost = read_first_line("/sys/devices/system/cpu/cpufreq/boost")
    if no_turbo in ("0", "1"):
        turbo = "on" if no_turbo == "0" else "off"
    elif boost in ("0", "1"):
        turbo = "on" if boost == "1" else "off"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "governor": read_first_line(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "turbo": turbo,
    }


def build():
    """Configures (once) and builds mwbench; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no simulator sources: {needed} is missing from {ROOT}")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "mwbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = os.path.join(build_dir, "mwbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise ValueError("no experiment attempted")
    metrics = result["metrics"]
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec, encoding="utf-8") as f:
            wanted = json.load(f)["per_layer" if trace else "end_to_end"]
        mismatch = {m["name"] for m in wanted} ^ set(metrics)
        if mismatch:
            raise ValueError("metrics differ from BENCHMARK.json: "
                             f"{sorted(mismatch)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny correctness self-test of the harness")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63 or not 1 <= args.seconds <= 60:
        parser.error("--seed or --seconds out of range")

    binary = build()
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"mwbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"mwbench exited with code {done.returncode}")
    if args.self_test:
        print("\n".join(lines))
        return

    try:
        meta = json.loads(lines[0])
        result = check_result(lines[-1], args.trace == 1)
    except ValueError as error:
        fail(f"malformed output from mwbench: {error}")
    meta["host"] = host_info()
    print(json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
