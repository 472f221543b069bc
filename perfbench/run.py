#!/usr/bin/env python3
"""Builds and runs the benchmark.

    python3 perfbench/run.py --workload synth|apply|apply_spill|serve \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library
from src/) into $CARGO_TARGET_DIR, default .bench_build; later calls
rebuild only what changed. Build output goes to standard error. The
binary's standard output is passed through: its last line is the result
JSON.

--self-test builds, runs every workload of BENCHMARK.json at a tiny size,
traced and untraced, and checks that every metric BENCHMARK.json names is
printed with its unit, that every per-workload metric name of the
measurement plan maps to a printed metric (NAMED_METRICS) or is listed as
dropped with its reason (DROPPED), and that the correctness gates pass.
"""

import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170

# The per-workload metric names of the measurement plan, mapped to the
# workload and the generic metric that carries them (README.md, "Metric
# map").
NAMED_METRICS = {
    "synth_p50_ms": ("synth", "p50_ms"),
    "synth_p90_ms": ("synth", "tail_ms"),
    "synth_total_s": ("synth", "work_per_s"),
    "synth_solved_ratio": ("synth", "ok_ratio"),
    "apply_stream_mb_per_s": ("apply", "work_per_s"),
    "apply_spill_mb_per_s": ("apply_spill", "work_per_s"),
    "serve_p50_ms": ("serve", "p50_ms"),
    "serve_p99_ms": ("serve", "tail_ms"),
    "serve_ok_ratio": ("serve", "ok_ratio"),
    "setup_s": (None, "setup_s"),
    "peak_rss_mb": (None, "peak_rss_mb"),
}

# Plan metrics no printed metric carries, with the reason. A dropped metric
# that is still recorded names the meta key of the workload that records it.
DROPPED = {
    "serve_max_rps": (
        "serve", "max_rps_rung",
        "the highest passing rate of the fixed ladder is a coarse pass/fail "
        "level that cannot move between its rungs; it is kept on the meta "
        "line, and work_per_s on serve is the sequential capacity instead"),
}


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    source = os.path.join(repo_root(), "perfbench")
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, work_dir):
    """Runs the binary; returns (exit code, stdout text)."""
    with subprocess.Popen([binary] + args + ["--workdir", work_dir],
                          stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print("perfbench: run timed out", file=sys.stderr)
            return 1, ""
    return child.returncode, out


def last_json(text, back=1):
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < back:
        return None
    try:
        return json.loads(lines[-back])
    except json.JSONDecodeError:
        return None


def self_test(binary, work_dir):
    with open(os.path.join(repo_root(), "BENCHMARK.json")) as f:
        spec = json.load(f)
    printed = {}
    meta = {}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, catalogue in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, out = run_binary(binary, ["--workload", workload, "--seed", "1",
                                            "--seconds", "1", "--trace", trace,
                                            "--tiny"], work_dir)
            result = last_json(out)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result line")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: correctness gate failed")
            if not result.get("attempted", 0) >= 1:
                problems.append(f"{where}: nothing attempted")
            metrics = result.get("metrics", {})
            for metric in catalogue:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit {got.get('unit')}")
            if set(metrics) != {m["name"] for m in catalogue}:
                problems.append(f"{where}: extra metrics {sorted(set(metrics) - {m['name'] for m in catalogue})}")
            printed[(workload, trace)] = metrics
            meta[(workload, trace)] = (last_json(out, back=2) or {}).get("meta", {})
    for name, (workload, metric) in NAMED_METRICS.items():
        workloads = [workload] if workload else [w["name"] for w in spec["workloads"]]
        for w in workloads:
            if metric not in printed.get((w, "0"), {}):
                problems.append(f"named metric {name}: {metric} not printed on {w}")
    for name, (workload, key, reason) in DROPPED.items():
        print(f"dropped {name}: {reason}")
        if key not in meta.get((workload, "0"), {}):
            problems.append(f"dropped metric {name}: {key} not on the {workload} meta line")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary, work_dir)
    code, out = run_binary(binary, sys.argv[1:], work_dir)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or last_json(out) is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
