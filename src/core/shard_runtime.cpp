#include "core/shard_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

namespace nfv::core {

Lane::Lane(std::uint32_t lane_id, const mgr::ManagerConfig& mgr_cfg,
           const flow::FlowTable::Config& flow_cfg,
           std::uint32_t mempool_capacity, flow::ChainRegistry& chains,
           mgr::ShardLink* link, Cycles latency, sim::EngineBackend backend,
           std::size_t pending_hint)
    : id(lane_id), ev(lane_id, backend), pool(mempool_capacity),
      flows(flow_cfg) {
  ev.engine().reserve(pending_hint);
  manager = std::make_unique<mgr::Manager>(ev.engine(), pool, flows, chains,
                                           mgr_cfg, &obs);
  if (link != nullptr) manager->set_shard_link(link, lane_id, latency);
  // Platform probes: the same keys on every lane, so the merged report sums
  // them across lanes into one series.
  obs.metrics().counter_fn("sim.dispatched_events", {}, [this] {
    return ev.engine().dispatched_events();
  });
  obs.metrics().gauge_fn("sim.mbufs_in_use", {}, [this] {
    return static_cast<double>(pool.in_use());
  });
  obs.metrics().counter_fn("flow.hits", {}, [this] { return flows.hits(); });
  obs.metrics().counter_fn("flow.misses", {},
                           [this] { return flows.misses(); });
  obs.metrics().counter_fn("flow.installs", {},
                           [this] { return flows.installs(); });
  obs.metrics().counter_fn("flow.expirations", {},
                           [this] { return flows.expirations(); });
  obs.metrics().gauge_fn("flow.table_size", {}, [this] {
    return static_cast<double>(flows.size());
  });
  obs.metrics().gauge_fn("flow.load_factor", {},
                         [this] { return flows.load_factor(); });
}

ShardRuntime::ShardRuntime(std::uint32_t shards, Cycles latency,
                           const mgr::ManagerConfig& mgr_cfg,
                           const flow::FlowTable::Config& flow_cfg,
                           std::uint32_t mempool_capacity,
                           flow::ChainRegistry& chains,
                           sim::EngineBackend backend,
                           std::size_t pending_hint)
    : shards_(shards),
      latency_(latency),
      backend_(backend),
      pending_hint_(pending_hint),
      mgr_cfg_(mgr_cfg),
      flow_cfg_(flow_cfg),
      mempool_capacity_(mempool_capacity),
      chains_(chains) {
  assert(latency_ > 0 && "cross-lane latency bounds the lookahead");
  if (!sharded()) push_lane();
}

ShardRuntime::~ShardRuntime() = default;

Lane& ShardRuntime::add_lane() {
  assert(sharded() && "the unsharded runtime has exactly one lane");
  assert(!exec_ && "topology is frozen once the simulation has run");
  return push_lane();
}

Lane& ShardRuntime::push_lane() {
  const auto id = static_cast<std::uint32_t>(lanes_.size());
  lanes_.push_back(std::make_unique<Lane>(
      id, mgr_cfg_, flow_cfg_, mempool_capacity_, chains_,
      sharded() ? this : nullptr, latency_, backend_, pending_hint_));
  return *lanes_.back();
}

void ShardRuntime::set_engine_backend(sim::EngineBackend backend) {
  backend_ = backend;
  for (auto& lane : lanes_) {
    lane->ev.engine().set_backend(backend);
    lane->ev.engine().reserve(pending_hint_);
  }
}

void ShardRuntime::set_features(bool cgroups, bool backpressure, bool ecn) {
  mgr_cfg_.enable_cgroups = cgroups;
  mgr_cfg_.enable_backpressure = backpressure;
  mgr_cfg_.enable_ecn = ecn;
  for (auto& lane : lanes_) {
    lane->manager->set_features(cgroups, backpressure, ecn);
  }
}

void ShardRuntime::set_pending_hint(std::size_t hint) {
  pending_hint_ = hint;
  for (auto& lane : lanes_) lane->ev.engine().reserve(hint);
}

std::uint64_t ShardRuntime::dispatched_events() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->ev.engine().dispatched_events();
  return total;
}

void ShardRuntime::post(std::uint32_t src, std::uint32_t dst,
                        const mgr::ShardMsg& msg) {
  assert(!boxes_[0].empty() && "posting before the first run");
  auto& msgs = boxes_[parity_][src * lanes_.size() + dst].msgs;
  assert((msgs.empty() || msgs.back().when <= msg.when) &&
         "a lane posts in time order");
  msgs.push_back(msg);
}

void ShardRuntime::run_until(Cycles target) {
  if (!sharded()) {
    // No other lane, hence no lookahead bound: one inclusive run, the same
    // boundary a caller of Engine::run_until gets.
    lanes_[0]->ev.engine().run_until(target);
    return;
  }
  if (lanes_.empty()) {
    now_ = std::max(now_, target);
    return;
  }
  if (!exec_) {
    const std::size_t n = lanes_.size();
    exec_ = std::make_unique<sim::ShardExecutor>(
        n, std::min<std::size_t>(shards_, n));
    for (auto& boxes : boxes_) boxes.resize(n * n);
  }
  if (now_ >= target) return;
  while (now_ < target) {
    const Cycles horizon = std::min<Cycles>(now_ + latency_, target);
    exec_->run_phase([this, horizon](std::size_t i) {
      drain_lane(i);
      lanes_[i]->ev.run_epoch(horizon);
    });
    parity_ ^= 1;
    now_ = horizon;
  }
  exec_->run_phase([this](std::size_t i) { drain_lane(i); });
}

void ShardRuntime::drain_lane(std::size_t dst) {
  Lane& lane = *lanes_[dst];
  auto& inbox = lane.inbox;
  // Drop what has been applied: normally everything, but an epoch cut
  // short by a run_until target leaves later deliveries pending.
  inbox.erase(inbox.begin(),
              inbox.begin() + static_cast<std::ptrdiff_t>(lane.inbox_next));
  lane.inbox_next = 0;
  // The previous epoch's mailboxes; nobody posts into them this epoch.
  std::vector<Mailbox>& boxes = boxes_[parity_ ^ 1];
  const std::size_t n = lanes_.size();
  // Merge the time-sorted source mailboxes one delivery time at a time:
  // within a time, sources in ascending lane order, each in FIFO order —
  // exactly the order per-message events with consecutive sequence numbers
  // would dispatch in. The group's event applies them back to back, and
  // anything a delivery schedules gets a later sequence number, so it runs
  // after the whole group.
  for (;;) {
    Cycles when = std::numeric_limits<Cycles>::max();
    for (std::size_t src = 0; src < n; ++src) {
      const Mailbox& box = boxes[src * n + dst];
      if (box.head < box.msgs.size()) {
        when = std::min(when, box.msgs[box.head].when);
      }
    }
    if (when == std::numeric_limits<Cycles>::max()) break;
    assert((inbox.empty() || inbox.back().when < when) &&
           "each drain's deliveries follow the previous drain's");
    const std::size_t first = inbox.size();
    for (std::size_t src = 0; src < n; ++src) {
      Mailbox& box = boxes[src * n + dst];
      while (box.head < box.msgs.size() && box.msgs[box.head].when == when) {
        inbox.push_back(box.msgs[box.head++]);
      }
    }
    const std::size_t count = inbox.size() - first;
    lane.ev.engine().schedule_at(when, [&lane, count] {
      for (std::size_t k = 0; k < count; ++k) {
        lane.manager->apply_shard_msg(lane.inbox[lane.inbox_next++]);
      }
    });
  }
  for (std::size_t src = 0; src < n; ++src) {
    Mailbox& box = boxes[src * n + dst];
    box.msgs.clear();
    box.head = 0;
  }
}

}  // namespace nfv::core
