#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

    python3 perfbench/test_perfbench.py            # checks + smoke runs
    python3 perfbench/test_perfbench.py CheckTest  # checks only (no build)

CheckTest feeds the correctness checks synthetic reports, intact and
deliberately corrupted. SmokeTest builds the benchmark and runs every
workload briefly, at the default seed and at a held-out seed, asserting
that each run passes its checks and prints every metric BENCHMARK.json
names, with a valid name and its unit; it then corrupts a real report and
confirms both checks fire on it.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import analysis  # noqa: E402
import run  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20171017
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def synthetic_report(sharded=False):
    """A minimal report that conserves packets: 100 packets on the wire,
    90 admitted (10 throttled), 80 egressed, 4 rx-full drops, 6 in flight."""
    metrics = [
        {"name": "mgr.unmatched_drops", "labels": {}, "type": "counter", "value": 0},
        {"name": "nf.handler_drops", "labels": {"nf": "a"}, "type": "counter", "value": 0},
        {"name": "sim.mbufs_in_use", "labels": {}, "type": "gauge", "value": 6},
    ]
    if sharded:
        metrics += [
            {"name": "mgr.shard_tx_msgs", "labels": {}, "type": "counter", "value": 50},
            {"name": "mgr.shard_rx_msgs", "labels": {}, "type": "counter", "value": 47},
        ]
    return {
        "meta": {"wire_ingress": 100, "dispatched_events": 10, "cpu_hz": 2.6e9},
        "nfs": [{"name": "a", "rx_full_drops": 4, "crash_drops": 0,
                 "processed": 86, "downstream_drops": 0}],
        "chains": [{"name": "c", "entry_admitted": 90,
                    "entry_throttle_drops": 10, "egress_packets": 80}],
        "metrics": metrics,
    }


class CheckTest(unittest.TestCase):
    def test_intact_report_conserves(self):
        self.assertIsNone(analysis.conservation_error(synthetic_report()))

    def test_conservation_fires_on_lost_packet(self):
        r = synthetic_report()
        r["chains"][0]["egress_packets"] -= 1
        self.assertIsNotNone(analysis.conservation_error(r))

    def test_conservation_fires_on_extra_packet(self):
        r = synthetic_report()
        r["nfs"][0]["rx_full_drops"] += 1
        self.assertIsNotNone(analysis.conservation_error(r))

    def test_conservation_fires_on_wire_split(self):
        r = synthetic_report()
        r["meta"]["wire_ingress"] += 1
        self.assertIsNotNone(analysis.conservation_error(r))

    def test_sharded_in_transit_bound(self):
        r = synthetic_report(sharded=True)
        r["chains"][0]["egress_packets"] -= 3  # three packets between lanes
        self.assertIsNone(analysis.conservation_error(r))
        r["chains"][0]["egress_packets"] -= 1  # one more than can be in transit
        self.assertIsNotNone(analysis.conservation_error(r))

    def test_identity_fires_on_one_changed_byte(self):
        text = json.dumps(synthetic_report())
        changed = text.replace('"dispatched_events": 10', '"dispatched_events": 11')
        self.assertNotEqual(changed, text)
        texts = [text, text, changed, text]
        flags, reasons = analysis.check_reports(texts)
        self.assertEqual(flags, [True, True, False, True])
        self.assertEqual(len(reasons), 1)

    def test_unreadable_report_fails(self):
        flags, _ = analysis.check_reports(["{not json", "{not json"])
        self.assertEqual(flags, [False, False])

    def test_failed_runs_timings_are_dropped(self):
        reps = [{"sim_ms": 100.0, "run_wall_s": w, "run_cpu_s": w,
                 "setup_s": 0.1, "peak_rss_kb": 1024} for w in (0.1, 0.1, 10.0)]
        v = analysis.end_to_end(reps, [True, True, False], sharded=False)
        self.assertAlmostEqual(v["sim_ms_per_wall_ms"], 1.0)
        self.assertAlmostEqual(v["check_pass_ratio"], 2 / 3)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, seconds=1, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def assert_result(self, proc, expected):
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(got["unit"], UNIT_RE)
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result

    def test_every_workload_prints_every_metric(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in s["end_to_end"]],
                         analysis.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in s["per_layer"]],
                         analysis.PER_LAYER)
        for workload in run.WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed, trace=0):
                    r = self.assert_result(run_bench(workload, seed, 0),
                                           s["end_to_end"])
                    for m in s["end_to_end"]:
                        self.assertGreater(r["metrics"][m["name"]]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                self.assert_result(run_bench(workload, DEFAULT_SEED, 1),
                                   s["per_layer"])

    def test_checks_fire_on_a_corrupted_real_report(self):
        self.assertEqual(run_bench("overload_mix", DEFAULT_SEED, 0).returncode, 0)
        run_dir = run.build_dir() / "runs" / f"overload_mix-seed{DEFAULT_SEED}-trace0"
        texts = [p.read_text() for p in sorted(run_dir.glob("*-rep-*.json"))]
        flags, _ = analysis.check_reports(texts)
        self.assertTrue(all(flags))
        # One digit more in the wire count: conservation and identity fire.
        lost = texts[0].replace('"wire_ingress":', '"wire_ingress":1', 1)
        self.assertIsNotNone(analysis.conservation_error(json.loads(lost)))
        flags, _ = analysis.check_reports(texts + [lost])
        self.assertEqual(flags, [True] * len(texts) + [False])
        # A changed field outside the packet accounting: identity fires alone.
        skewed = texts[0].replace('"elapsed_seconds":', '"elapsed_seconds":1', 1)
        self.assertIsNone(analysis.conservation_error(json.loads(skewed)))
        flags, _ = analysis.check_reports(texts + [skewed])
        self.assertEqual(flags, [True] * len(texts) + [False])

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / "build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig07_chain",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
