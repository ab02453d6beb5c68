#!/usr/bin/env python3
"""DHGCN end-to-end benchmark runner.

Builds the repository's library and the benchmark binary in Release (in
$CARGO_TARGET_DIR, default .bench_build/, under the repository root),
then runs one workload in its own process:

  python3 perfbench/run.py --workload train-ntu --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (and writes its spans as Chrome Trace Event
JSON under the build directory). The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when the build fails or an output check fails.

  python3 perfbench/run.py --workload all --seed 1 --seconds 30

runs every workload, each in its own process, and prints every
end-to-end metric by name with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-ntu", "train-kinetics-stgcn", "serve-ntu")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds perfbench_dhgcn; returns its path or None."""
    if not (
        os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
        and os.path.isdir(os.path.join(ROOT, "src"))
    ):
        log("perfbench: the repository sources (CMakeLists.txt, src/) are "
            "not next to perfbench/; nothing to build")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench_dhgcn", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-6000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    cache = os.path.join(out, "CMakeCache.txt")
    with open(cache, encoding="utf-8") as f:
        build_type = next(
            (line.strip().split("=", 1)[1] for line in f
             if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log(f"perfbench: refusing a '{build_type}' build; Release only")
        return None
    return os.path.join(out, "perfbench_dhgcn")


def context_lines():
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return [f"context: git_sha={sha} nproc={os.cpu_count()} loadavg={load}"]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, workload, seed, seconds, trace, named=None):
    """Runs one workload; returns (exit code, parsed result or None).

    `named` collects the workload's `metric <name> <value> <unit>` lines.
    """
    work = os.path.join(os.path.dirname(binary), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", work]
    if trace:
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace_out",
                os.path.join(traces, f"{workload}-seed{seed}.trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 3, None
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
        if named is not None and line.startswith("metric "):
            fields = line.split()
            named.append((workload, fields[1], float(fields[2]), fields[3]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"perfbench: {workload} printed no result line")
        return proc.returncode or 4, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result keys")
        return 4, None
    expected = expected_metrics(trace)
    if expected is not None:
        got = result["metrics"]
        extra = sorted(k for k, m in got.items()
                       if expected.get(k) != m["unit"])
        # A per-layer metric of a layer the workload does not exercise
        # reads 0; every end-to-end metric must be measured.
        missing = [k for k in expected if k not in got]
        if extra or (missing and not trace):
            log(f"perfbench: metrics differ from BENCHMARK.json: "
                f"missing {missing}, unknown or wrong unit {extra}")
            return 4, None
        result["metrics"] = {
            k: got.get(k, {"value": 0, "unit": unit})
            for k, unit in expected.items()}
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    for line in context_lines():
        print(line)
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed,
                               args.seconds, args.trace == 1)
        if result is None:
            return code or 4
        print(json.dumps(result))
        return code

    # Every workload in its own process; tables of every metric: the
    # workloads' own names first, then the BENCHMARK.json names.
    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    named = []
    rows = []
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args.seed, args.seconds,
                               args.trace == 1, named)
        if result is None:
            return code or 4
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
    for title, table in (("workload metrics", named),
                         ("BENCHMARK.json metrics", rows)):
        print(f"--- {title}")
        print(f"{'workload':22} {'metric':40} {'value':>16} unit")
        for workload, name, value, unit in table:
            print(f"{workload:22} {name:40} {value:16.6g} {unit}")
    print(f"correct={combined['correct']} attempted={combined['attempted']} "
          f"failed={combined['failed']}")
    print(json.dumps(combined))
    return worst or (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
