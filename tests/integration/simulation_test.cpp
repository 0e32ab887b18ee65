// End-to-end behaviour of the Simulation facade.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace nfv::core {
namespace {

TEST(Simulation, PolicyNames) {
  EXPECT_STREQ(to_string(SchedPolicy::kCfsNormal), "NORMAL");
  EXPECT_STREQ(to_string(SchedPolicy::kCfsBatch), "BATCH");
  EXPECT_STREQ(to_string(SchedPolicy::kRoundRobin), "RR");
}

TEST(Simulation, TimeAdvances) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  sim.add_chain("c", {nf});
  EXPECT_DOUBLE_EQ(sim.now_seconds(), 0.0);
  sim.run_for_seconds(0.25);
  EXPECT_NEAR(sim.now_seconds(), 0.25, 1e-9);
  sim.run_for_seconds(0.25);
  EXPECT_NEAR(sim.now_seconds(), 0.5, 1e-9);
}

// The single-lane accessors hand out the one lane's objects; with several
// lanes (or none yet) they refuse in every build type rather than quietly
// returning lane 0's replica. Per-NF queries go through mgr_of().
TEST(Simulation, SingleLaneAccessorsRefuseSeveralLanes) {
  PlatformConfig cfg;
  cfg.sim_shards = 2;
  Simulation sim(cfg);
  EXPECT_THROW((void)sim.manager(), std::logic_error);  // no lane yet
  const auto core0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core0, nf::CostModel::fixed(100));
  EXPECT_EQ(&sim.manager(), &sim.mgr_of(a));
  const auto core1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto b = sim.add_nf("b", core1, nf::CostModel::fixed(100));
  EXPECT_THROW((void)sim.engine(), std::logic_error);
  EXPECT_THROW((void)sim.manager(), std::logic_error);
  EXPECT_THROW((void)sim.pool(), std::logic_error);
  EXPECT_THROW((void)sim.disk(), std::logic_error);
  EXPECT_THROW((void)sim.flow_table(), std::logic_error);
  EXPECT_THROW((void)sim.observability(), std::logic_error);
  EXPECT_NE(&sim.mgr_of(a), &sim.mgr_of(b));
  EXPECT_TRUE(sim.mgr_of(b).owns_nf(b));

  // Unsharded, one lane owns every core.
  Simulation unsharded;
  const auto c0 = unsharded.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = unsharded.add_core(SchedPolicy::kCfsBatch);
  const auto u0 = unsharded.add_nf("u0", c0, nf::CostModel::fixed(1));
  const auto u1 = unsharded.add_nf("u1", c1, nf::CostModel::fixed(1));
  EXPECT_EQ(&unsharded.mgr_of(u0), &unsharded.manager());
  EXPECT_EQ(&unsharded.mgr_of(u1), &unsharded.manager());
}

// metric() reads one merged series, summed over the lanes as report_json()
// prints it; a name no lane registered throws instead of reading 0.
TEST(Simulation, MetricMergesLanesAndRefusesUnknownSeries) {
  PlatformConfig cfg;
  cfg.sim_shards = 2;
  Simulation sim(cfg);
  const auto core0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto core1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core0, nf::CostModel::fixed(200));
  const auto b = sim.add_nf("b", core1, nf::CostModel::fixed(300));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 2e6);
  sim.run_for_seconds(0.01);
  EXPECT_GT(sim.metric("sim.dispatched_events"), 0.0);
  EXPECT_GT(sim.metric("mgr.shard_rx_msgs"), 0.0);
  const std::string chain_label = std::to_string(chain);
  EXPECT_GT(sim.chain_metrics(chain).egress_packets, 0u);
  EXPECT_EQ(sim.metric("chain.egress_packets", {{"chain", chain_label}}),
            static_cast<double>(sim.chain_metrics(chain).egress_packets));
  EXPECT_THROW((void)sim.metric("chain.egress_packets", {{"chain", "99"}}),
               std::out_of_range);
  EXPECT_THROW((void)sim.metric("no.such_metric"), std::out_of_range);

  // Unsharded, no lane has a peer, so the shard counters do not exist.
  Simulation unsharded;
  const auto c = unsharded.add_core(SchedPolicy::kCfsBatch);
  const auto u = unsharded.add_nf("u", c, nf::CostModel::fixed(100));
  unsharded.add_udp_flow(unsharded.add_chain("u", {u}), 1e6);
  unsharded.run_for_seconds(0.001);
  EXPECT_THROW((void)unsharded.metric("mgr.shard_rx_msgs"), std::out_of_range);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    const auto core_id = sim.add_core(SchedPolicy::kCfsNormal);
    const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
    const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(550));
    const auto chain = sim.add_chain("ab", {a, b});
    sim.add_udp_flow(chain, 4e6);
    sim.run_for_seconds(0.05);
    return sim.chain_metrics(chain).egress_packets;
  };
  const auto first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(run_once(), first);
  EXPECT_EQ(run_once(), first);
}

TEST(Simulation, MultiCorePlacement) {
  Simulation sim;
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(500));
  const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(500));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 3e6);
  sim.run_for_seconds(0.1);
  // Each NF has its own core: both can exceed 50% CPU simultaneously.
  EXPECT_GT(sim.nf_cpu_share(a), 0.5);
  EXPECT_GT(sim.nf_cpu_share(b), 0.5);
  EXPECT_EQ(sim.core_count(), 2u);
}

TEST(Simulation, ThroughputBoundedByBottleneck) {
  Simulation sim;
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  // 4500-cycle NF on its own core: capacity = 2.6e9/4500 = 0.578 Mpps.
  const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(550));
  const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(4500));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 6e6);
  sim.run_for_seconds(0.2);
  const double mpps = static_cast<double>(
                          sim.chain_metrics(chain).egress_packets) /
                      sim.now_seconds() / 1e6;
  EXPECT_GT(mpps, 0.45);
  EXPECT_LT(mpps, 0.60);
}

TEST(Simulation, ReportPrintsAllNfsAndChains) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("alpha", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("mychain", {a});
  sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.01);
  std::ostringstream oss;
  sim.print_report(oss);
  const std::string report = oss.str();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("mychain"), std::string::npos);
}

TEST(Simulation, MetricsSnapshotsSubtract) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.05);
  const auto before = sim.nf_metrics(nf);
  sim.run_for_seconds(0.05);
  const auto after = sim.nf_metrics(nf);
  const auto delta = after - before;
  EXPECT_GT(delta.processed, 0u);
  EXPECT_LT(delta.processed, after.processed);
  EXPECT_NEAR(static_cast<double>(delta.processed), 5000.0, 200.0);
}

TEST(Simulation, AddFlowAfterStart) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.run_for_seconds(0.01);
  const auto flow = sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.05);
  EXPECT_GT(sim.manager().flow_counters(flow).egress_packets, 1000u);
}

TEST(Simulation, RrQuantumConfigurable) {
  Simulation sim;
  const auto fast_rr = sim.add_core(SchedPolicy::kRoundRobin, 1.0);
  const auto nf = sim.add_nf("nf", fast_rr, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.02);
  EXPECT_GT(sim.chain_metrics(chain).egress_packets, 1000u);
}

}  // namespace
}  // namespace nfv::core
