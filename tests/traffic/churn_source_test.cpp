// ChurnSource emission contract: the packet sequence (keys, per-flow seq,
// arrival stamps, flow births and retirements) depends on the seed alone —
// not on the source burst, not on where a stop time cuts a batch — and the
// counters a fixed seed produces are pinned.
#include "traffic/churn_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "nfs/monitor.hpp"

namespace nfv::traffic {
namespace {

using core::ChurnOptions;
using core::PlatformConfig;
using core::SchedPolicy;
using core::Simulation;

/// One packet as the chain's NF saw it.
struct Seen {
  pktio::FlowKey key;
  std::uint64_t seq = 0;
  Cycles arrival = 0;
  friend bool operator==(const Seen&, const Seen&) = default;
};

struct SourceRun {
  std::uint64_t sent = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t flows_retired = 0;
  std::uint64_t alloc_drops = 0;
  std::uint64_t egress = 0;
  std::vector<Seen> seen;
};

/// A lightly loaded single-NF chain whose handler records every packet in
/// processing order — which is ingress order, since nothing drops.
SourceRun record_run(ChurnOptions opts, double run_seconds) {
  Simulation sim(PlatformConfig{});
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf_id = sim.add_nf("rec", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf_id});
  SourceRun out;
  sim.nf(nf_id).set_handler([&out](pktio::Mbuf& pkt) {
    out.seen.push_back(Seen{pkt.key, pkt.seq, pkt.arrival_time});
    return nf::NfAction::kForward;
  });
  const ChurnSource& src = sim.add_churn_workload(chain, 1e6, opts);
  sim.run_for_seconds(run_seconds);
  out.sent = src.packets_sent();
  out.flows_created = src.flows_created();
  out.flows_retired = src.flows_retired();
  out.alloc_drops = src.alloc_drops();
  out.egress = sim.chain_metrics(chain).egress_packets;
  return out;
}

void expect_same_emission(const SourceRun& a, const SourceRun& b) {
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.flows_created, b.flows_created);
  EXPECT_EQ(a.flows_retired, b.flows_retired);
  ASSERT_EQ(a.seen.size(), b.seen.size());
  for (std::size_t i = 0; i < a.seen.size(); ++i) {
    ASSERT_EQ(a.seen[i] == b.seen[i], true) << "packets differ at " << i;
  }
}

// With only four live flows, a batch of 8 or 64 routinely retires a slot
// and then picks the same slot again for the successor flow. Every burst
// must still emit the one-packet-per-event sequence exactly. (The source
// stops before the run ends so every burst setting has emitted the whole
// window: a batch is delivered at its last packet's arrival time.)
TEST(ChurnSource, FourFlowsEmitTheSameSequenceAtAnyBurst) {
  ChurnOptions opts{.concurrent_flows = 4,
                    .stop_seconds = 0.01,
                    .pareto_alpha = 1.5,
                    .pareto_min_packets = 2.0,
                    .seed = 0xb0057};
  opts.burst = 1;
  const SourceRun b1 = record_run(opts, 0.012);
  opts.burst = 8;
  const SourceRun b8 = record_run(opts, 0.012);
  opts.burst = 64;
  const SourceRun b64 = record_run(opts, 0.012);

  ASSERT_GT(b1.flows_retired, 1'000u) << "four flows should churn constantly";
  EXPECT_EQ(b1.flows_created, 4u + b1.flows_retired);
  EXPECT_EQ(b1.alloc_drops, 0u);
  EXPECT_EQ(b1.egress, b1.seen.size());
  expect_same_emission(b1, b8);
  expect_same_emission(b1, b64);

  // Per-flow sequence numbers restart at 0 for every successor flow and
  // count up without gaps.
  std::vector<std::pair<pktio::FlowKey, std::uint64_t>> next;
  for (const Seen& s : b64.seen) {
    auto it = std::find_if(next.begin(), next.end(),
                           [&](const auto& e) { return e.first == s.key; });
    if (it == next.end()) {
      EXPECT_EQ(s.seq, 0u);
      next.emplace_back(s.key, 1);
    } else {
      EXPECT_EQ(s.seq, it->second);
      ++it->second;
    }
  }
}

// A stop time that falls inside a batch halts at the same packet as
// one-at-a-time emission would, and nothing is emitted after it.
TEST(ChurnSource, StopInsideABatchHaltsAtTheSamePacket) {
  ChurnOptions opts{.concurrent_flows = 4,
                    .stop_seconds = 0.00731,
                    .pareto_alpha = 1.5,
                    .seed = 0x5709};
  opts.burst = 1;
  const SourceRun b1 = record_run(opts, 0.02);
  opts.burst = 64;
  const SourceRun b64 = record_run(opts, 0.02);

  ASSERT_GT(b64.sent, 0u);
  EXPECT_NE(b64.sent % 64, 0u) << "the stop time should cut a batch";
  expect_same_emission(b1, b64);
  const Cycles stop = CpuClock{}.from_seconds(opts.stop_seconds);
  for (const Seen& s : b64.seen) EXPECT_LT(s.arrival, stop);
}

// Pinned counters for one seed: 3k flows at 2 Mpps through a flow monitor
// and an overloaded NF, with a 512-mbuf pool (so the source also starves)
// and a 5 ms idle expiry. Any change to the draw order, the flow
// lifetimes or the install order moves them.
TEST(ChurnSource, PinnedCountersForAFixedSeed) {
  PlatformConfig cfg;
  cfg.mempool_capacity = 512;
  cfg.flow_table.idle_timeout = static_cast<Cycles>(0.005 * cfg.cpu_hz);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto mon = sim.add_nf("monitor", core_id, nf::CostModel::fixed(120));
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(1500));
  const auto chain = sim.add_chain("c", {mon, slow});
  nfs::FlowMonitor monitor(1u << 12);
  monitor.install(sim.nf(mon), nfs::FlowMonitor::PathCosts{});
  const ChurnSource& src = sim.add_churn_workload(
      chain, 2e6,
      {.concurrent_flows = 3'000, .pareto_alpha = 1.5, .seed = 0x601d});
  sim.run_for_seconds(0.1);

  EXPECT_EQ(src.packets_sent(), 176'239u);
  EXPECT_EQ(src.flows_created(), 46'552u);
  EXPECT_EQ(src.flows_retired(), 43'552u);
  EXPECT_EQ(src.alloc_drops(), 23'729u);
  EXPECT_EQ(sim.flow_table().installs(), 46'552u);
  EXPECT_EQ(sim.flow_table().expirations(), 42'396u);
  EXPECT_EQ(sim.chain_metrics(chain).egress_packets, 149'116u);
}

}  // namespace
}  // namespace nfv::traffic
