#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at --size smoke through run.py, twice untraced and twice
traced, and checks:
  - the output contract: the last stdout line is {"correct", "attempted",
    "failed", "metrics"}, correct is true, and the metrics are exactly
    BENCHMARK.json's end-to-end set (untraced) or per-layer set (traced),
    each with its declared unit;
  - the report line: every figure carries a unit, and the machine block is
    complete;
  - determinism: the exact counts, the exact per-layer counts and the output
    digest repeat across the two runs of a mode, and the digest is the same
    traced and untraced;
  - argument handling: the benchmark binary rejects positional, unknown,
    repeated and space-separated arguments with exit status 2 and prints
    nothing.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Every workload the benchmark runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ["fleet-deep", "fleet-wide", "session-online", "offline-bounds"]
SECONDS = "2"

# Per-layer metrics that are exact counts (deterministic for a seed).
EXACT_LAYER = {
    "pomdp.engine.nodes_per_root", "pomdp.engine.leaves_per_root",
    "pomdp.engine.deep_fallbacks", "sim.fleet.solved_roots_per_tick",
    "sim.fleet.shared_ratio", "sim.fleet.episodes_per_tick",
    "bounds.planes_added_per_decide", "bounds.set_size",
    "sim.session.decides_per_episode", "linalg.solve_iterations",
    "linalg.scc_components", "linalg.scc_levels", "bounds.artifact_bytes",
    "util.pool.threads_created_after_warmup",
}
MACHINE_KEYS = {"nproc", "pool_thread_cap", "cpu_model", "simd", "compiler",
                "build_type", "git_rev", "source_digest"}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(workload, trace, seed="7"):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", SECONDS, "--trace", trace, "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    label = f"{workload} trace={trace}"
    check(out.returncode == 0, f"{label}: exit {out.returncode}: {out.stderr[-400:]}")
    lines = out.stdout.strip().splitlines()
    if len(lines) < 3:
        check(False, f"{label}: expected 3 output lines, got {len(lines)}")
        return None
    machine = json.loads(lines[-3])["machine"]
    report = json.loads(lines[-2])["report"]
    record = json.loads(lines[-1])
    check(set(record) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: record keys {sorted(record)}")
    check(record.get("correct") is True, f"{label}: correct is not true")
    check(isinstance(record.get("attempted"), int) and record["attempted"] >= 1,
          f"{label}: attempted must be a whole number >= 1")
    check(isinstance(record.get("failed"), int), f"{label}: failed must be a whole number")
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in record.get("metrics", {}).items()}
    check(got == expected, f"{label}: metric names/units differ from BENCHMARK.json")
    for name, metric in record.get("metrics", {}).items():
        check(isinstance(metric.get("value"), (int, float)), f"{label}: {name} has no value")
    for name, figure in report["figures"].items():
        check(bool(figure.get("unit")), f"{label}: report figure {name} has no unit")
    check(MACHINE_KEYS <= set(machine), f"{label}: machine block lacks "
          f"{sorted(MACHINE_KEYS - set(machine))}")
    check(not report["failed_checks"], f"{label}: failed checks {report['failed_checks']}")
    return report, record


def rejects(args, what):
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "recoverd_perfbench")
    out = subprocess.run([binary, *args], cwd=ROOT, capture_output=True, text=True,
                         check=False)
    check(out.returncode == 2 and out.stdout == "", f"binary accepted {what}: {args}")


def main():
    for workload in WORKLOADS:
        failed_before = len(failures)
        runs = {trace: [run(workload, trace) for _ in range(2)] for trace in ("0", "1")}
        if any(r is None for rs in runs.values() for r in rs):
            continue
        for trace, ((rep_a, rec_a), (rep_b, rec_b)) in runs.items():
            label = f"{workload} trace={trace}"
            check(rep_a["counts"] == rep_b["counts"],
                  f"{label}: exact counts differ between runs: "
                  f"{rep_a['counts']} vs {rep_b['counts']}")
            check(rep_a["digest"] == rep_b["digest"], f"{label}: digest differs between runs")
            if trace == "1":
                for name in EXACT_LAYER:
                    check(rec_a["metrics"][name] == rec_b["metrics"][name],
                          f"{label}: {name} differs between runs")
        check(runs["0"][0][0]["digest"] == runs["1"][0][0]["digest"],
              f"{workload}: digest differs between traced and untraced runs")
        print(f"{'ok' if len(failures) == failed_before else 'FAILED'} {workload}",
              file=sys.stderr)

    good = ["--workload=session-online", "--seed=1", "--seconds=1", "--trace=0"]
    rejects(good + ["false"], "a positional argument")
    rejects(good + ["--deep-batch=false"], "an unknown key")
    rejects(good + ["--seed=2"], "a repeated key")
    rejects(["--workload", "session-online", "--seed=1", "--seconds=1", "--trace=0"],
            "a space-separated value")
    rejects(good[:-1], "a missing key")
    rejects(["--workload=nope", "--seed=1", "--seconds=1", "--trace=0"], "an unknown workload")

    if failures:
        print(f"selftest: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("selftest: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
