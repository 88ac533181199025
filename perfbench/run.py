#!/usr/bin/env python3
"""Repository benchmark: builds and runs perfbench, prints one result line.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 15 --trace 0

Run from the repository root. The measuring program (perfbench/src) is
configured and built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), together with the library from src/. Workload
constants come from perfbench/spec.json; metric names, units, directions and
bounds from BENCHMARK.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric with --trace 0, every
per_layer metric with --trace 1. Before it, one line summarises the host
context. The full record (host context, wall and CPU seconds, contamination
flag, per-span self times and, for traced runs, the span log) is written to
.perfbench/<workload>-seed<N>-trace<T>.json. The exit code is non-zero,
without a result line, when the build or the program fails, and non-zero
after the result line when a correctness check failed.

Unit tests of the result-line schema: python3 -m unittest discover perfbench
"""

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# Stays under the 180 s a run may take, including the program's own set-up.
PROGRAM_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures (once) and builds the measuring program; returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not (out_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out_dir), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out_dir / "perfbench"


def cpu_info():
    model, flags = platform.processor(), set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags":
                    flags = set(value.split())
                if model and flags:
                    break
    except OSError:
        pass
    return model, sorted(f for f in flags if f.startswith(("avx2", "avx512")))


def host_context(spec_workload):
    model, flags = cpu_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "simd_flags": flags,
        "build_type": "Release -O2, -march=native on src/tensor/kernels.cc",
        "params": spec_workload["params"],
        "load_before": list(os.getloadavg()),
    }


def contaminated(record, spec):
    """Host interference judged from the run's own clocks (see spec.json)."""
    limits = spec["contamination"]
    timing = record["timing"]
    reasons = []
    if timing["busy_threads"] >= 1 and timing["timed_cpu_s"] > 0:
        ratio = timing["timed_wall_s"] / timing["timed_cpu_s"]
        if ratio > limits["max_wall_per_cpu"]:
            reasons.append("timed wall/CPU %.2f > %.2f" %
                           (ratio, limits["max_wall_per_cpu"]))
    late = timing["sender_late_p99_ms"]
    if late > limits["max_generator_late_ms"]:
        reasons.append("sender p99 late %.2f ms > %.2f ms" %
                       (late, limits["max_generator_late_ms"]))
    return reasons


def result_line(record, bench, trace):
    """The benchmark's result line: exactly RESULT_KEYS, every metric of the
    mode with its unit. Raises ValueError when a metric is missing or not a
    finite number."""
    section, values = (("per_layer", record["per_layer"]) if trace else
                       ("end_to_end", record["end_to_end"]))
    metrics = {}
    for metric in bench[section]:
        name = metric["name"]
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is missing or not finite: %r" %
                             (name, value))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        raise ValueError("metrics not in BENCHMARK.json: %s" % unknown)
    return {
        "correct": bool(record["correct"]),
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "spec.json")
    if args.workload not in spec["workloads"]:
        print("unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    program = build(build_dir())

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = out_dir / (stem + ".raw.json")
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(raw_path)]
    for key, value in workload["params"].items():
        command += ["--param", "%s=%s" % (key, value)]

    context = host_context(workload)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    # subprocess.run kills and reaps the child when the timeout expires.
    subprocess.run(command, check=True, stdout=sys.stderr,
                   timeout=PROGRAM_TIMEOUT_S)
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    context["load_after"] = list(os.getloadavg())
    context["wall_s"] = wall
    context["cpu_s"] = ((after.ru_utime - before.ru_utime) +
                        (after.ru_stime - before.ru_stime))

    record = load_json(raw_path)
    raw_path.unlink()
    # The thread count the program derived from its params.
    context["threads"] = int(record["timing"]["threads"])
    context["contaminated"] = contaminated(record, spec)
    line = result_line(record, bench, args.trace)
    with open(out_dir / (stem + ".json"), "w") as f:
        json.dump({"context": context, "record": record}, f, indent=1)

    print("host: nproc %s, threads %d, %s, %s, load %.2f -> %.2f, "
          "wall %.1f s, cpu %.1f s%s"
          % (context["nproc"], context["threads"], context["cpu_model"],
             "/".join(context["simd_flags"]) or "no avx2",
             context["load_before"][0], context["load_after"][0], wall,
             context["cpu_s"],
             "; CONTAMINATED: " + "; ".join(context["contaminated"])
             if context["contaminated"] else ""))
    for failure in record["failures"]:
        print("check failed: " + failure)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
