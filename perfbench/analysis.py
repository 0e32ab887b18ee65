"""Correctness checks and metric arithmetic for the simulator benchmark.

Pure functions over the benchmark binary's JSON lines and the
report_json() documents it writes, so the checks can be tested on
deliberately corrupted reports (see test_perfbench.py).
"""

import json
import math
import statistics

SLOW_DECILE = 0.1

# End-to-end metrics: (name, unit). Printed by every --trace 0 run.
END_TO_END = [
    ("sim_ms_per_wall_ms", "ms/ms"),
    ("cpu_ms_per_sim_ms", "ms/ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_ratio", "ratio"),
]

# Per-layer metrics: (name, unit). Printed by every --trace 1 run.
PER_LAYER = [
    ("core.construct_ms", "ms"),
    ("core.topology_ms", "ms"),
    ("core.start_ms", "ms"),
    ("core.ns_per_packet_hop", "ns"),
    ("core.slice_us_p50", "us"),
    ("core.slice_us_p99", "us"),
    ("core.unattributed_share", "ratio"),
    ("sim.events_per_packet_hop", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.dispatch_ns", "ns"),
    ("sim.est_share", "ratio"),
    ("sched.switches_per_sim_ms", "1/ms"),
    ("sched.preemptions_per_sim_ms", "1/ms"),
    ("sched.pick_ns", "ns"),
    ("sched.est_share", "ratio"),
    ("nf.packet_hops_per_sim_ms", "1/ms"),
    ("nf.wasted_ratio", "ratio"),
    ("pktio.ring_burst_ns", "ns"),
    ("pktio.mbuf_burst_ns", "ns"),
    ("pktio.est_share", "ratio"),
    ("mgr.wire_per_sim_ms", "1/ms"),
    ("mgr.shed_ratio", "ratio"),
    ("mgr.wakeup_scans_per_sim_ms", "1/ms"),
    ("mgr.shares_writes_per_sim_ms", "1/ms"),
    ("bp.throttle_entries_per_sim_ms", "1/ms"),
    ("bp.adm_discards_per_sim_ms", "1/ms"),
    ("bp.push_grabs", "count"),
    ("flow.lookups_per_sim_ms", "1/ms"),
    ("flow.hit_ratio", "ratio"),
    ("flow.installs_per_sim_ms", "1/ms"),
    ("flow.expirations_per_sim_ms", "1/ms"),
    ("flow.table_size", "count"),
    ("flow.lookup_ns", "ns"),
    ("flow.est_share", "ratio"),
    ("obs.latency_record_ns", "ns"),
    ("obs.report_json_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.trace_events_per_sim_ms", "1/ms"),
    ("obs.est_share", "ratio"),
    ("shard.phases_per_sim_ms", "1/ms"),
    ("shard.barrier_us", "us"),
    ("shard.barrier_share", "ratio"),
    ("shard.msgs_per_packet_hop", "count"),
    ("shard.speedup", "ratio"),
    ("shard.legacy_speedup", "ratio"),
    ("bench.span_overhead_ratio", "ratio"),
]


def metric_sum(report, name):
    """Sum of every instrument called `name` in the report's registry dump."""
    return sum(m["value"] for m in report["metrics"] if m["name"] == name)


def conservation_error(report):
    """None if the report conserves packets, else a one-line reason.

    Wire ingress splits exactly into the per-chain entry sinks (admitted,
    entry-throttled, admission-discarded) plus unmatched drops. Admitted
    packets end as egress, rx-full, handler or crash drops, or are still
    in flight: held in an mbuf (sim.mbufs_in_use) or, on the sharded
    engine, crossing lanes inside a message not yet received (bounded by
    mgr.shard_tx_msgs - mgr.shard_rx_msgs). No chain egresses more than it
    admitted.
    """
    chains = report["chains"]
    wire = report["meta"]["wire_ingress"]
    admitted = sum(c["entry_admitted"] for c in chains)
    throttled = sum(c["entry_throttle_drops"] for c in chains)
    adm_discards = sum(c.get("admission", {}).get("admission_discards", 0)
                       for c in chains)
    unmatched = metric_sum(report, "mgr.unmatched_drops")
    split = admitted + throttled + adm_discards + unmatched
    if wire != split:
        return f"wire ingress {wire} != entry sinks {split}"
    for c in chains:
        if c["egress_packets"] > c["entry_admitted"]:
            return (f"chain {c['name']} egressed {c['egress_packets']} of "
                    f"{c['entry_admitted']} admitted")
    sinks = (sum(c["egress_packets"] for c in chains)
             + sum(n["rx_full_drops"] + n["crash_drops"] for n in report["nfs"])
             + metric_sum(report, "nf.handler_drops")
             + metric_sum(report, "sim.mbufs_in_use"))
    in_transit = (metric_sum(report, "mgr.shard_tx_msgs")
                  - metric_sum(report, "mgr.shard_rx_msgs"))
    gap = admitted - sinks
    if not 0 <= gap <= in_transit:
        return (f"admitted {admitted} != egress+drops+in-flight {sinks} "
                f"(gap {gap}, in-transit bound {in_transit})")
    return None


def identity_failures(texts):
    """Indices of report texts that differ from the most common one."""
    reference = statistics.mode(texts)
    return [i for i, t in enumerate(texts) if t != reference]


def check_reports(texts):
    """Per-report pass flags: valid JSON, conserving, and byte-identical to
    the others. Returns (flags, reasons)."""
    flags = [True] * len(texts)
    reasons = []
    for i, text in enumerate(texts):
        try:
            err = conservation_error(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            err = f"unreadable report: {exc}"
        if err:
            flags[i] = False
            reasons.append(f"report {i}: conservation: {err}")
    for i in identity_failures(texts):
        flags[i] = False
        reasons.append(f"report {i}: differs from the other runs of the seed")
    return flags, reasons


def result_line(correct, attempted, failed, values, names):
    """The final stdout line: every metric in `names`, by name and unit."""
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def nearest_rank(values, q):
    """The q-quantile of `values` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reps, flags, sharded):
    """End-to-end metric values from the timed repetitions. Repetitions
    whose report failed a check are counted but their timings dropped.

    Speed and CPU cost are quantiles over the repetitions chosen by how the
    run's noise behaves on a shared host. A single-threaded run's speed
    swings between levels that last seconds to minutes, so it reports the
    slow decile (the 10th percentile of speed, the 90th of CPU per
    simulated ms), which repeats across runs far more closely than the
    median. A sharded run's slow repetitions are ones where a lane worker
    lost its CPU, scattered at random, so it reports the median. Set-up
    time and memory are medians.
    """
    kept = [r for r, ok in zip(reps, flags) if ok] or reps
    q = 0.5 if sharded else SLOW_DECILE
    med = statistics.median
    return {
        "sim_ms_per_wall_ms": nearest_rank(
            [r["sim_ms"] / (r["run_wall_s"] * 1e3) for r in kept], q),
        "cpu_ms_per_sim_ms": nearest_rank(
            [r["run_cpu_s"] * 1e3 / r["sim_ms"] for r in kept], 1 - q),
        "setup_s": med(r["setup_s"] for r in kept),
        "peak_rss_mb": med(r["peak_rss_kb"] / 1024.0 for r in kept),
        "check_pass_ratio": sum(flags) / len(flags),
    }


def per_layer(rounds, probes, report):
    """Per-layer metric values from the traced rounds, the probes and the
    run's (checked, identical) report."""
    med = statistics.median

    def over_rounds(fn):
        return med(fn(r) for r in rounds)

    sim_ms = rounds[0]["untraced"]["sim_ms"]
    wall_ns = over_rounds(lambda r: r["untraced"]["run_wall_s"]) * 1e9
    hops = sum(n["processed"] for n in report["nfs"])
    events = report["meta"]["dispatched_events"]
    wire = report["meta"]["wire_ingress"]
    chains = report["chains"]
    hits = metric_sum(report, "flow.hits")
    lookups = hits + metric_sum(report, "flow.misses")
    switches = metric_sum(report, "sched.context_switches")
    sharded = "shards1" in rounds[0]
    phases = 0.0
    if sharded:
        epochs_per_ms = report["meta"]["cpu_hz"] / 1e3 / probes["epoch_cycles"]
        phases = 2.0 * epochs_per_ms * sim_ms
    burst = probes["burst"]

    # Probe time x the run's count of that operation: each layer's
    # estimated share of the untraced run's wall time.
    shares = {
        "sim": probes["dispatch_ns"] * events / wall_ns,
        "sched": probes["pick_ns"] * switches / wall_ns,
        # A packet-hop crosses an rx and a tx ring; mbufs are allocated at
        # the wire and freed at a sink, both in bursts of up to `burst`.
        "pktio": (probes["ring_burst_ns"] * 2 * hops
                  + probes["mbuf_burst_ns"] * wire) / burst / wall_ns,
        "flow": probes["lookup_ns"] * lookups / wall_ns,
        "obs": (probes["latency_record_ns"]
                * metric_sum(report, "chain.tail_samples") / wall_ns),
        "shard": probes["barrier_us"] * 1e3 * phases / wall_ns,
    }

    return {
        "core.construct_ms": over_rounds(lambda r: r["traced"]["construct_s"]) * 1e3,
        "core.topology_ms": over_rounds(lambda r: r["traced"]["topology_s"]) * 1e3,
        "core.start_ms": over_rounds(lambda r: r["traced"]["start_s"]) * 1e3,
        "core.ns_per_packet_hop": wall_ns / hops,
        "core.slice_us_p50": over_rounds(lambda r: r["slice_us_p50"]),
        "core.slice_us_p99": over_rounds(lambda r: r["slice_us_p99"]),
        "core.unattributed_share": 1.0 - sum(shares.values()),
        "sim.events_per_packet_hop": events / hops,
        "sim.ns_per_event": wall_ns / events,
        "sim.dispatch_ns": probes["dispatch_ns"],
        "sim.est_share": shares["sim"],
        "sched.switches_per_sim_ms": switches / sim_ms,
        "sched.preemptions_per_sim_ms":
            metric_sum(report, "sched.preemptions") / sim_ms,
        "sched.pick_ns": probes["pick_ns"],
        "sched.est_share": shares["sched"],
        "nf.packet_hops_per_sim_ms": hops / sim_ms,
        "nf.wasted_ratio":
            sum(n["downstream_drops"] for n in report["nfs"]) / hops,
        "pktio.ring_burst_ns": probes["ring_burst_ns"],
        "pktio.mbuf_burst_ns": probes["mbuf_burst_ns"],
        "pktio.est_share": shares["pktio"],
        "mgr.wire_per_sim_ms": wire / sim_ms,
        "mgr.shed_ratio": (sum(c["entry_throttle_drops"] for c in chains)
                           + metric_sum(report, "adm.discards")) / wire,
        "mgr.wakeup_scans_per_sim_ms":
            metric_sum(report, "mgr.wakeup_scans") / sim_ms,
        "mgr.shares_writes_per_sim_ms":
            metric_sum(report, "mgr.shares_writes") / sim_ms,
        "bp.throttle_entries_per_sim_ms":
            metric_sum(report, "bp.throttle_entries") / sim_ms,
        "bp.adm_discards_per_sim_ms": metric_sum(report, "adm.discards") / sim_ms,
        "bp.push_grabs": metric_sum(report, "pam.grabs"),
        "flow.lookups_per_sim_ms": lookups / sim_ms,
        "flow.hit_ratio": hits / lookups if lookups else 0.0,
        "flow.installs_per_sim_ms": metric_sum(report, "flow.installs") / sim_ms,
        "flow.expirations_per_sim_ms":
            metric_sum(report, "flow.expirations") / sim_ms,
        "flow.table_size": metric_sum(report, "flow.table_size"),
        "flow.lookup_ns": probes["lookup_ns"],
        "flow.est_share": shares["flow"],
        "obs.latency_record_ns": probes["latency_record_ns"],
        "obs.report_json_ms": over_rounds(lambda r: r["untraced"]["report_s"]) * 1e3,
        "obs.trace_overhead_ratio": over_rounds(
            lambda r: r["recorder"]["run_wall_s"] / r["untraced"]["run_wall_s"]),
        "obs.trace_events_per_sim_ms":
            over_rounds(lambda r: r["recorder"]["trace_events"]) / sim_ms,
        "obs.est_share": shares["obs"],
        "shard.phases_per_sim_ms": phases / sim_ms,
        "shard.barrier_us": probes["barrier_us"],
        "shard.barrier_share": shares["shard"],
        "shard.msgs_per_packet_hop": metric_sum(report, "mgr.shard_tx_msgs") / hops,
        # Legacy-path workloads run no sharded engine: no speed-up, 1.
        "shard.speedup": over_rounds(
            lambda r: r["shards1"]["run_wall_s"] / r["untraced"]["run_wall_s"])
        if sharded else 1.0,
        "shard.legacy_speedup": over_rounds(
            lambda r: r["legacy"]["run_wall_s"] / r["untraced"]["run_wall_s"])
        if sharded else 1.0,
        "bench.span_overhead_ratio": over_rounds(
            lambda r: r["traced"]["run_wall_s"] / r["untraced"]["run_wall_s"]),
    }
