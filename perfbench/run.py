#!/usr/bin/env python3
"""Builds and runs the nmrs Database benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload of BENCHMARK.json in turn. Run from
the root of a checkout. The library and the benchmark are built
from source with CMake into $CARGO_TARGET_DIR (default .bench_build) under
the checkout. Build output goes to stderr; stdout carries the benchmark's
table and, as its last line, the JSON result. The result's metric names are
checked against BENCHMARK.json before it is printed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets=("perfbench",)):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)
    return out


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, workload, trace):
    """Returns an error string, or None when the result matches the spec."""
    bench = spec()
    if workload not in [w["name"] for w in bench["workloads"]]:
        return "workload %s is not in BENCHMARK.json" % workload
    listed = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    return None


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    argv = ["--workload", workload]
    for flag in ("--seed", "--seconds", "--trace"):
        argv += [flag, args[flag]]
    try:
        proc = subprocess.run([binary, *argv], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, []
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode, []
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1, []
    error = check_result(result, workload, args["--trace"] == "1")
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 1, []
    return 0, lines


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        print(__doc__, file=sys.stderr)
        return 2
    workloads = [args["--workload"]]
    if workloads == ["all"]:
        workloads = [w["name"] for w in spec()["workloads"]]
    try:
        binary = os.path.join(build(), "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    for workload in workloads:
        code, lines = run_one(binary, workload, args)
        if code != 0:
            return code
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
