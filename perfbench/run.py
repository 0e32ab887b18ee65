#!/usr/bin/env python3
"""Simulator benchmark: one command, four paper workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
simulator from src/) in Release into $CARGO_TARGET_DIR, default
.bench_build, then runs the nfv_perfbench binary on one workload:

  --trace 0  times repeated runs and prints the end-to-end metrics;
  --trace 1  runs the separate traced pass and prints the per-layer metrics.

Every run's report is checked (packet conservation, byte identity across
repeated runs of the seed; in the traced pass also across slicing, an
attached TraceRecorder and, for sharded workloads, sim_shards=1). The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. The line before it records the
build type, compiler, host threads and seed; numbers from a build that is
not an optimised Release build are marked "comparable": false there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

WORKLOADS = ["fig07_chain", "xlane_4core", "overload_mix", "flow_churn"]
# Environment overrides the simulator or its benches would honour; the
# workloads pin all of these explicitly.
NEUTRALISED_ENV = ["NFV_SIM_SHARDS", "NFV_ENGINE_BACKEND", "NFV_BENCH_SCALE",
                   "NFV_BENCH_WORKERS"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(out):
    if not (ROOT / "src" / "core" / "simulation.hpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's and LTO's temporary files stay inside the build tree.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = out / "nfv_perfbench"
    if not binary.is_file():
        fail(f"{binary} missing after build")
    return binary


def run_binary(binary, args, out_dir):
    env = {k: v for k, v in os.environ.items() if k not in NEUTRALISED_ENV}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    (out_dir / "bench.jsonl").write_text(proc.stdout)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    return ([line for line in lines if line["kind"] == "build"][0],
            [line for line in lines if line["kind"] != "build"])


def read(path):
    return Path(path).read_text()


def timed(lines, sharded):
    reps = [line["rep"] for line in lines]
    flags, reasons = analysis.check_reports([read(r["report"]) for r in reps])
    return reps, flags, reasons, analysis.end_to_end(reps, flags, sharded)


def medians(reps):
    """Median speed and CPU cost of the repetitions, for the info line."""
    return {
        "repetitions": len(reps),
        "sim_ms_per_wall_ms_p50": statistics.median(
            r["sim_ms"] / (r["run_wall_s"] * 1e3) for r in reps),
        "cpu_ms_per_sim_ms_p50": statistics.median(
            r["run_cpu_s"] * 1e3 / r["sim_ms"] for r in reps),
    }


def traced(lines):
    rounds = [line for line in lines if line["kind"] == "round"]
    probes = [line for line in lines if line["kind"] == "probes"][0]
    texts = []
    for r in rounds:
        for tag in ("untraced", "traced", "recorder", "shards1"):
            if tag in r:
                texts.append(read(r[tag]["report"]))
    flags, reasons = analysis.check_reports(texts)
    # The legacy-path run of a sharded topology is a different model: it
    # must conserve packets but is not expected to match the others.
    for i, r in enumerate(rounds):
        if "legacy" in r:
            flags_l, reasons_l = analysis.check_reports(
                [read(r["legacy"]["report"])])
            flags += flags_l
            reasons += [f"round {i} legacy {x}" for x in reasons_l]
    report = json.loads(texts[0])
    return flags, reasons, analysis.per_layer(rounds, probes, report)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    run_dir = out / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    start = time.monotonic()
    info, lines = run_binary(binary, args, run_dir)
    if args.trace:
        flags, reasons, values = traced(lines)
        names = analysis.PER_LAYER
    else:
        reps, flags, reasons, values = timed(lines, info["sharded"])
        names = analysis.END_TO_END
        info.update(medians(reps))
    for reason in reasons:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    info["kind"] = "info"
    info["wall_s"] = time.monotonic() - start
    info["checks"] = reasons
    print(json.dumps(info))
    failed = flags.count(False)
    print(analysis.result_line(failed == 0, len(flags), failed, values, names))


if __name__ == "__main__":
    main()
