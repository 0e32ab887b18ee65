// Cross-lane delivery contract of the sharded runtime (DESIGN.md §14).
//
// A drain merges a lane's inbound mailboxes into (when, source lane, FIFO)
// order and schedules one engine event per distinct delivery time; the
// mailboxes are double-buffered by epoch parity so each epoch costs one
// barrier. These cases pin the observable consequences: application order,
// the event count of a drain, where same-timestamp follow-up events land,
// and that splitting a run into many calls changes nothing. The suite
// honours NFV_ENGINE_BACKEND, so CI's TSan job runs it on both backends.

#include "core/shard_runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace nfv::core {
namespace {

constexpr Cycles kLatency = 1000;

sim::EngineBackend env_backend() {
  sim::EngineBackend backend = sim::EngineBackend::kHeap;
  sim::parse_engine_backend(std::getenv("NFV_ENGINE_BACKEND"), backend);
  return backend;
}

/// A bare runtime: lanes with Manager replicas that are never started, so
/// the only engine events are the ones a test schedules and the deliveries.
struct Rig {
  Rig(std::uint32_t lanes, std::uint32_t shards)
      : rt(shards, kLatency, mgr::ManagerConfig{}, flow::FlowTable::Config{},
           64, chains, env_backend()) {
    for (std::uint32_t i = 0; i < lanes; ++i) rt.add_lane();
  }

  sim::Engine& engine(std::uint32_t lane) { return rt.lane(lane).ev.engine(); }

  /// Post a flow-egress message tagged `tag` from `src` to `dst` when
  /// `src`'s engine reaches `at`, stamped like the Manager stamps it.
  void post_at(std::uint32_t src, std::uint32_t dst, Cycles at,
               std::uint64_t tag) {
    engine(src).schedule_at(at, [this, src, dst, tag] {
      mgr::ShardMsg msg;
      msg.kind = mgr::ShardMsg::Kind::kFlowEgress;
      msg.when = engine(src).now() + kLatency;
      msg.pkt.seq = tag;
      rt.post(src, dst, msg);
    });
  }

  /// Record (time, tag) for every message applied on `lane`.
  void record(std::uint32_t lane) {
    rt.lane(lane).manager->set_egress_sink(0, [this, lane](
                                                  const pktio::Mbuf& pkt) {
      applied.push_back({engine(lane).now(), pkt.seq});
    });
  }

  struct Applied {
    Cycles at;
    std::uint64_t tag;
    bool operator==(const Applied&) const = default;
  };

  flow::ChainRegistry chains;
  ShardRuntime rt;
  std::vector<Applied> applied;
};

TEST(ShardRuntime, SameTimeMessagesApplyBySourceLaneThenFifo) {
  for (std::uint32_t shards : {1u, 4u}) {
    Rig rig(4, shards);
    rig.record(0);
    // Lane 3 posts more than a fixed-size ring would hold in one epoch.
    for (std::uint64_t k = 0; k < 300; ++k) rig.post_at(3, 0, 100, 3000 + k);
    rig.post_at(2, 0, 100, 2000);
    rig.post_at(2, 0, 150, 2100);
    rig.post_at(1, 0, 50, 1100);
    rig.post_at(1, 0, 100, 1000);
    rig.post_at(1, 0, 100, 1001);
    rig.rt.run_until(10 * kLatency);

    std::vector<Rig::Applied> want{{50 + kLatency, 1100},
                                   {100 + kLatency, 1000},
                                   {100 + kLatency, 1001},
                                   {100 + kLatency, 2000}};
    for (std::uint64_t k = 0; k < 300; ++k) {
      want.push_back({100 + kLatency, 3000 + k});
    }
    want.push_back({150 + kLatency, 2100});
    EXPECT_EQ(rig.applied, want) << "shards=" << shards;
  }
}

TEST(ShardRuntime, OneDeliveryEventPerDistinctTime) {
  Rig rig(2, 2);
  rig.record(0);
  for (std::uint64_t k = 0; k < 50; ++k) rig.post_at(1, 0, 10, k);
  rig.post_at(1, 0, 20, 50);
  rig.rt.run_until(5 * kLatency);
  ASSERT_EQ(rig.applied.size(), 51u);
  // 51 messages at two delivery times: two events on the receiving lane.
  EXPECT_EQ(rig.engine(0).dispatched_events(), 2u);
  EXPECT_EQ(rig.rt.dispatched_events(), 2u + 51u);
}

TEST(ShardRuntime, SameTimeFollowUpRunsAfterTheWholeGroup) {
  Rig rig(3, 3);
  const Cycles when = 10 + kLatency;
  std::vector<std::uint64_t> order;
  // Scheduled on the receiving lane before the run, hence before the drain.
  rig.engine(0).schedule_at(when, [&order] { order.push_back(900); });
  bool first = true;
  rig.rt.lane(0).manager->set_egress_sink(
      0, [&rig, &order, &first](const pktio::Mbuf& pkt) {
        order.push_back(pkt.seq);
        if (!first) return;
        first = false;
        sim::Engine& engine = rig.engine(0);
        engine.schedule_at(engine.now(), [&order] { order.push_back(999); });
      });
  rig.post_at(1, 0, 10, 1);
  rig.post_at(1, 0, 10, 2);
  rig.post_at(2, 0, 10, 3);
  rig.rt.run_until(5 * kLatency);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{900, 1, 2, 3, 999}));
}

TEST(ShardRuntime, ZeroLengthAndOddTargetsMatchOneCall) {
  // Piece lengths 7 us and 13 us are not multiples of the 10 us cross-lane
  // latency, so most calls end mid-epoch with deliveries still pending.
  const auto run = [](bool split) {
    PlatformConfig cfg;
    cfg.sim_shards = 4;
    Simulation sim(cfg);
    std::vector<flow::NfId> nfs;
    for (int i = 0; i < 4; ++i) {
      const auto core = sim.add_core(SchedPolicy::kCfsBatch);
      nfs.push_back(sim.add_nf("nf" + std::to_string(i), core,
                               nf::CostModel::fixed(200 + 60 * i)));
    }
    const auto ring = sim.add_chain("ring", {nfs[0], nfs[1], nfs[2], nfs[3]});
    const auto pair = sim.add_chain("pair", {nfs[3], nfs[0]});
    sim.add_udp_flow(ring, 2.5e6);
    sim.add_udp_flow(pair, 2e6);
    sim.add_tcp_flow(ring);
    if (split) {
      sim.run_for_seconds(0.0);
      for (int i = 0; i < 500; ++i) {
        sim.run_for_seconds(0.0);
        sim.run_for_seconds(7e-6);
        sim.run_for_seconds(13e-6);
      }
    } else {
      sim.run_for_seconds(0.01);
    }
    return sim.report_json();
  };
  const std::string single = run(false);
  const std::string split = run(true);
  ASSERT_FALSE(single.empty());
  EXPECT_TRUE(single == split) << "split run diverges from one call";
}

}  // namespace
}  // namespace nfv::core
