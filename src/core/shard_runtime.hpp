// Event-lane runtime (DESIGN.md §14): the one execution path every
// Simulation runs on.
//
// A lane is a private engine plus private replicas of everything the
// packet path touches (mbuf pool, flow table, Manager, observability, block
// device). The runtime has two shapes, and they differ only in the
// core->lane map and the run loop:
//
// - Unsharded (shards = 0): one lane, created with the runtime, owns every
//   core. Its Manager has no shard link, so no cross-lane message can
//   exist, and run_until() runs the lane's engine straight to the target.
// - Sharded (shards = N >= 1): one lane per core, advanced in lock-step
//   epochs of length cross_lane_latency. Within an epoch lanes run
//   concurrently on worker threads and share nothing; the only
//   communication is ShardMsg traffic through per-(src,dst) mailboxes, and
//   because every message is stamped send_time + latency, nothing posted
//   during an epoch can be due before the epoch ends. The mailboxes are
//   double-buffered by epoch parity: lanes post epoch k's messages into
//   parity k, and each lane drains parity k at the start of its epoch k+1
//   run phase, merging its sources into (when, source lane, FIFO) order and
//   scheduling one engine event per distinct delivery time. So the
//   *decomposition* (one lane per core) is fixed by the topology and the
//   worker count only decides how many lanes run at once. That is the
//   determinism argument in one line: lane event sequences are independent
//   of NFV_SIM_SHARDS by construction, hence reports, traces and counters
//   are byte-identical at any worker count.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "fault/injector.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "io/block_device.hpp"
#include "mgr/manager.hpp"
#include "mgr/shard_link.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "pktio/mempool.hpp"
#include "sim/event_lane.hpp"
#include "sim/shard_barrier.hpp"

namespace nfv::core {

/// One event lane: a private slice of the platform. Sharded, lane index
/// equals core index; unsharded, lane 0 owns every core. Everything in here
/// is touched only by the worker thread driving the lane (or by the main
/// thread between runs).
struct Lane {
  /// `link` is null for the unsharded lane: its Manager then never posts
  /// or registers cross-lane state.
  Lane(std::uint32_t lane_id, const mgr::ManagerConfig& mgr_cfg,
       const flow::FlowTable::Config& flow_cfg, std::uint32_t mempool_capacity,
       flow::ChainRegistry& chains, mgr::ShardLink* link, Cycles latency);

  std::uint32_t id;
  sim::EventLane ev;
  pktio::MbufPool pool;
  flow::FlowTable flows;
  obs::Observability obs;
  std::unique_ptr<mgr::Manager> manager;
  /// Sharded only: per-lane trace buffer, merged into the user's recorder
  /// after each run (sorted by timestamp, then lane, then intra-lane order).
  std::unique_ptr<obs::TraceRecorder> trace;
  std::size_t trace_consumed = 0;  ///< Events already merged out.
  std::unique_ptr<io::BlockDevice> disk;  ///< Lazy, like Simulation::disk().
  std::unique_ptr<fault::FaultInjector> injector;
  /// Cross-lane messages drained from the mailboxes but not yet applied,
  /// in delivery order; inbox[inbox_next] is the next one due. Each drain
  /// appends one (when, source lane, FIFO)-ordered batch whose times all
  /// exceed the previous batch's, so the delivery events, which fire in
  /// time order, consume the inbox front to back.
  std::vector<mgr::ShardMsg> inbox;
  std::size_t inbox_next = 0;
};

/// Owns the lanes, the mailbox matrix and the worker pool, and implements
/// the run loop. Simulation delegates run_for_seconds here.
class ShardRuntime final : public mgr::ShardLink {
 public:
  /// `shards` = 0 builds the unsharded runtime and its one lane. Otherwise
  /// `shards` is the requested worker count; the effective count is
  /// min(shards, lanes) at the first run. `latency` is the modelled
  /// cross-lane transit time and the epoch length (must be > 0).
  ShardRuntime(std::uint32_t shards, Cycles latency,
               const mgr::ManagerConfig& mgr_cfg,
               const flow::FlowTable::Config& flow_cfg,
               std::uint32_t mempool_capacity, flow::ChainRegistry& chains);
  ~ShardRuntime() override;

  /// True when every core gets its own lane (shards >= 1).
  [[nodiscard]] bool sharded() const { return shards_ > 0; }

  /// Create the next lane (index = current count). Sharded topology-build
  /// time only: the unsharded lane exists from construction.
  Lane& add_lane();

  /// The core->lane map: sharded, core i runs on lane i; unsharded, every
  /// core runs on lane 0.
  [[nodiscard]] std::uint32_t lane_of_core(std::size_t core) const {
    return sharded() ? static_cast<std::uint32_t>(core) : 0;
  }

  /// Flip the Manager control-plane features on every lane, existing and
  /// future (see mgr::Manager::set_features).
  void set_features(bool cgroups, bool backpressure, bool ecn);

  [[nodiscard]] const std::vector<std::unique_ptr<Lane>>& lanes() const {
    return lanes_;
  }
  [[nodiscard]] Lane& lane(std::size_t i) { return *lanes_[i]; }
  [[nodiscard]] const Lane& lane(std::size_t i) const { return *lanes_[i]; }
  [[nodiscard]] std::size_t size() const { return lanes_.size(); }
  /// Simulated time every lane has reached.
  [[nodiscard]] Cycles now() const {
    return sharded() ? now_ : lanes_[0]->ev.engine().now();
  }
  [[nodiscard]] Cycles latency() const { return latency_; }
  [[nodiscard]] std::uint32_t shards() const { return shards_; }
  /// Sum of all lane engines' dispatched-event counts.
  [[nodiscard]] std::uint64_t dispatched_events() const;

  // mgr::ShardLink — called from lane worker threads during an epoch.
  void post(std::uint32_t src, std::uint32_t dst,
            const mgr::ShardMsg& msg) override;
  [[nodiscard]] std::uint32_t lane_count() const override {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  /// Advance every lane to `target`, inclusive of events stamped exactly
  /// at it. Unsharded, the one lane's engine runs straight there. Sharded,
  /// the lanes advance in lookahead epochs, one barrier per epoch: each
  /// lane drains the messages posted to it during the previous epoch, then
  /// runs this one. The drain reads only the other parity's mailboxes,
  /// which nobody writes during this epoch, so a lane's engine sequence
  /// numbers (and with them same-timestamp tie-breaks) never depend on
  /// worker timing. A final drain phase leaves every mailbox empty between
  /// calls.
  void run_until(Cycles target);

 private:
  /// Per-(src,dst) mailbox for one epoch parity: the source worker appends
  /// during epoch k, the destination worker drains and clears it during
  /// epoch k+1; the barrier between the epochs is the synchronisation. A
  /// lane posts in time order, so `msgs` is sorted by `when`. Cache-line
  /// aligned so concurrent posters do not share a line.
  struct alignas(64) Mailbox {
    std::vector<mgr::ShardMsg> msgs;
    std::size_t head = 0;  ///< Drain cursor.
  };

  /// Append a lane, wired to the shard link when sharded.
  Lane& push_lane();

  /// Move lane `dst`'s messages from the previous epoch's mailboxes (parity
  /// `parity_ ^ 1`) into its inbox and schedule one delivery event per
  /// distinct delivery time.
  void drain_lane(std::size_t dst);

  std::uint32_t shards_;
  Cycles latency_;
  // Copies of the platform knobs, so lanes added later see the same config
  // as the first.
  mgr::ManagerConfig mgr_cfg_;
  flow::FlowTable::Config flow_cfg_;
  std::uint32_t mempool_capacity_;
  flow::ChainRegistry& chains_;

  Cycles now_ = 0;  ///< Sharded only; the unsharded lane's engine keeps time.
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// [parity][src * n + dst]; lanes post into parity_ during a run phase.
  std::array<std::vector<Mailbox>, 2> boxes_;
  unsigned parity_ = 0;
  // Declared last: its destructor joins the workers before anything the
  // phase callbacks touch is torn down.
  std::unique_ptr<sim::ShardExecutor> exec_;
};

}  // namespace nfv::core
