#!/usr/bin/env python3
"""Compare the performance benches against the committed baseline.

Runs the serial microbenches plus the availability bench and checks their
headline numbers against BENCH_baseline.json, failing when any metric
regresses by more than the tolerance (default 20%). All metrics are
higher-is-better:

  engine_events_per_sec          micro_engine's aggregate event throughput
  flowmap_batch_lookups_per_sec  micro_flowmap: batched FlowMap hit
                                 lookups/sec at one million flows
  flowmap_lookup_speedup_vs_unordered
                                 micro_flowmap: batched FlowMap hits vs
                                 std::unordered_map on the same keys (the
                                 flow-state library's reason to exist; a
                                 ratio, so host speed cancels out)
  flowstore_install_expire_ops_per_sec
                                 micro_flowmap: FlowStore churn — 1M
                                 installs + 1M expiries
  substrate_sim_ms_per_wall_ms   simulated ms per wall-clock ms of the
                                 fig. 7 chain (micro_substrate's
                                 BM_EndToEndChainMillisecond)
  availability_goodput_ratio     fig_availability: NFVnice's total goodput
                                 under an NF crash relative to Default's
                                 (BATCH scheduler). Simulation output, so
                                 it is deterministic; the tolerance only
                                 has to absorb intentional model changes.
  io_fault_goodput_ratio         fig_io_fault: async+retry's aggregate
                                 goodput under storage faults relative to
                                 the sync baseline's (DESIGN.md §12).
                                 Also deterministic simulation output.
  shard_events_per_sec           micro_shard: event throughput of the
                                 sharded engine at sim_shards=4 on a
                                 4-lane cross-chain topology
  shard_speedup_4w               micro_shard: wall-clock speedup of
                                 sim_shards=4 over sim_shards=1. Gated
                                 against an absolute 3.0x floor, but only
                                 when the machine reports >= 4 hardware
                                 threads — on smaller hosts the row prints
                                 SKIP (the bench still enforces the
                                 byte-identity contract by exit code).

Two fig_slo metrics are lower-is-better (DESIGN.md §16) and checked
against a ceiling of base * (1 + tolerance) instead:

  slo_violation_ratio            fig_slo: SLO-violation-seconds of the
                                 feedback controller relative to rate-cost
                                 fairness (NORMAL scheduler). Additionally
                                 gated against an absolute 1.0 ceiling:
                                 the controller must strictly beat fair
                                 whatever the baseline recorded.
                                 Deterministic simulation output.
  slo_p99_us                     fig_slo: the controller arm's whole-run
                                 p99 chain-completion latency in
                                 microseconds. Deterministic simulation
                                 output.

The overload-control frontier (fig_overload, DESIGN.md §17) adds one of
each kind. Deterministic simulation output:

  overload_priority_goodput_ratio
                                 gold-class goodput with admission +
                                 push-aside relative to plain backpressure
                                 under ~2x overload. Higher is better, and
                                 additionally gated against an absolute
                                 floor: the combined arm must retain
                                 strictly more priority goodput than the
                                 baseline whatever the pinned value.
  overload_gold_p99_ratio        gold-class whole-run p99, combined over
                                 baseline. Lower is better (ceiling).

Regenerate the baseline (e.g. on a hardware change or an accepted perf
shift) with --update. CI machines are noisy, hence the wide tolerance;
the baseline was captured on an idle box, so a genuine 20% regression is
well outside run-to-run jitter of these serial benches.

Usage:
  tools/check_bench_baseline.py --build-dir build-release [--update]
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_baseline.json"


def run_micro_engine(binary: pathlib.Path) -> dict:
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    data = json.loads(out)
    return {
        "engine_events_per_sec": float(data["events_per_sec"]),
    }


def run_fig_availability(binary: pathlib.Path) -> float:
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    return float(json.loads(out)["availability_goodput_ratio"])


def run_fig_io_fault(binary: pathlib.Path) -> float:
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    return float(json.loads(out)["io_fault_goodput_ratio"])


def run_fig_slo(binary: pathlib.Path) -> dict:
    # The bench exits non-zero when the SLO arm's report is not
    # byte-identical across a rerun or across sim_shards=1 vs 4, so
    # check=True doubles as the determinism gate (micro_shard precedent).
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    data = json.loads(out)
    return {
        "slo_violation_ratio": float(data["slo_violation_ratio"]),
        "slo_p99_us": float(data["slo_p99_us"]),
    }


def run_fig_overload(binary: pathlib.Path) -> dict:
    # Exits non-zero when the combined arm's report is not byte-identical
    # across a rerun or across sim_shards=1 vs 4; check=True doubles as
    # the determinism gate (micro_shard precedent).
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    data = json.loads(out)
    return {
        "overload_priority_goodput_ratio":
            float(data["overload_priority_goodput_ratio"]),
        "overload_gold_p99_ratio": float(data["overload_gold_p99_ratio"]),
    }


def run_micro_flowmap(binary: pathlib.Path) -> dict:
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    data = json.loads(out)
    return {
        "flowmap_batch_lookups_per_sec":
            float(data["flowmap_batch_lookups_per_sec"]),
        "flowmap_lookup_speedup_vs_unordered":
            float(data["flowmap_lookup_speedup_vs_unordered"]),
        "flowstore_install_expire_ops_per_sec":
            float(data["flowstore_install_expire_ops_per_sec"]),
    }


def run_micro_shard(binary: pathlib.Path) -> dict:
    # The bench exits non-zero when the shards=1 vs shards=4 reports are
    # not byte-identical, so check=True doubles as the determinism gate.
    out = subprocess.run([str(binary), "--json"], check=True,
                         capture_output=True, text=True).stdout
    data = json.loads(out)
    return {
        "shard_speedup_4w": float(data["shard_speedup_4w"]),
        "shard_events_per_sec": float(data["shard_events_per_sec"]),
        "host_cores": int(data["host_cores"]),
    }


# Parallel speedup cannot materialize without cores to run on: the
# shard_speedup_4w gate is absolute (3x at 4 workers) and applies only on
# hosts with at least this many hardware threads.
SHARD_SPEEDUP_FLOOR = 3.0
SHARD_SPEEDUP_MIN_CORES = 4

# Metrics where smaller is better: checked against a ceiling instead of a
# floor. slo_violation_ratio additionally has an absolute ceiling — the
# feedback controller must produce strictly fewer violation-seconds than
# rate-cost fairness no matter what the baseline recorded.
LOWER_IS_BETTER = {"slo_violation_ratio", "slo_p99_us",
                   "overload_gold_p99_ratio"}
SLO_VIOLATION_RATIO_CEILING = 1.0

# Absolute floor for the overload-control frontier (DESIGN.md §17): with
# admission + push-aside on, the priority class must retain strictly more
# goodput than plain backpressure under ~2x overload, whatever ratio the
# baseline happened to pin.
OVERLOAD_PRIORITY_GOODPUT_FLOOR = 1.02


def run_micro_substrate(binary: pathlib.Path, repetitions: int) -> float:
    out = subprocess.run(
        [
            str(binary),
            "--benchmark_filter=^BM_EndToEndChainMillisecond$",
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
            "--benchmark_format=json",
        ],
        check=True, capture_output=True, text=True).stdout
    for bench in json.loads(out)["benchmarks"]:
        if bench.get("aggregate_name") == "mean":
            # real_time is ms of wall per iteration; one iteration
            # simulates one millisecond.
            return 1.0 / float(bench["real_time"])
    raise RuntimeError("no mean aggregate in micro_substrate output")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", type=pathlib.Path,
                        default=REPO_ROOT / "build-release",
                        help="CMake build dir containing bench/ binaries")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline instead of checking")
    args = parser.parse_args()

    bench_dir = args.build_dir / "bench"
    current = {
        "substrate_sim_ms_per_wall_ms":
            run_micro_substrate(bench_dir / "micro_substrate",
                                args.repetitions),
        "availability_goodput_ratio":
            run_fig_availability(bench_dir / "fig_availability"),
        "io_fault_goodput_ratio":
            run_fig_io_fault(bench_dir / "fig_io_fault"),
    }
    current.update(run_micro_engine(bench_dir / "micro_engine"))
    current.update(run_micro_flowmap(bench_dir / "micro_flowmap"))
    current.update(run_fig_slo(bench_dir / "fig_slo"))
    current.update(run_fig_overload(bench_dir / "fig_overload"))
    shard = run_micro_shard(bench_dir / "micro_shard")
    host_cores = shard.pop("host_cores")
    current.update(shard)

    if args.update:
        args.baseline.write_text(
            json.dumps({"metrics": current}, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        for name, value in sorted(current.items()):
            print(f"  {name}: {value:.4g}")
        return 0

    baseline = json.loads(args.baseline.read_text())["metrics"]
    failed = False
    for name, base in sorted(baseline.items()):
        if name not in current:
            print(f"{'SKIP':>10}  {name}: no longer produced by the benches "
                  "(baseline entry is stale; regenerate with --update)")
            continue
        now = current[name]
        if name in LOWER_IS_BETTER:
            ceiling = base * (1.0 + args.tolerance)
            if name == "slo_violation_ratio":
                ceiling = min(ceiling, SLO_VIOLATION_RATIO_CEILING)
            verdict = "OK" if now <= ceiling else "REGRESSION"
            failed |= now > ceiling
            print(f"{verdict:>10}  {name}: {now:.4g} "
                  f"(baseline {base:.4g}, ceiling {ceiling:.4g})")
            continue
        if name == "shard_speedup_4w":
            # Absolute gate, host-core aware: see the docstring.
            if host_cores < SHARD_SPEEDUP_MIN_CORES:
                print(f"{'SKIP':>10}  {name}: {now:.4g} "
                      f"(host has {host_cores} hardware threads, "
                      f"gate needs >= {SHARD_SPEEDUP_MIN_CORES})")
                continue
            floor = SHARD_SPEEDUP_FLOOR * (1.0 - args.tolerance)
        elif name == "overload_priority_goodput_ratio":
            # Relative floor like every higher-is-better metric, but never
            # below the absolute combined-beats-baseline gate.
            floor = max(base * (1.0 - args.tolerance),
                        OVERLOAD_PRIORITY_GOODPUT_FLOOR)
        else:
            floor = base * (1.0 - args.tolerance)
        verdict = "OK" if now >= floor else "REGRESSION"
        failed |= now < floor
        print(f"{verdict:>10}  {name}: {now:.4g} "
              f"(baseline {base:.4g}, floor {floor:.4g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
