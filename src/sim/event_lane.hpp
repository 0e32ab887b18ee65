// One shard of the sharded simulation: an event engine plus its epoch
// bookkeeping.
//
// A lane owns a full Engine instance (slot pool, 4-ary heap, sequence
// counter) and is the unit the ShardExecutor hands to a worker thread. All
// simulation components pinned to a lane — its sched::Core, the NfTasks on
// it, their Manager replica, traffic sources homed there — schedule against
// this engine and never touch another lane's, so lanes are data-race free
// by construction and an epoch's outcome does not depend on which worker
// ran it.
//
// Epoch convention: the conservative-lookahead loop advances lanes in
// epochs [start, horizon). Engine::run_until is *inclusive* of its
// deadline, so run_epoch(horizon) runs the engine to horizon - 1: events
// stamped exactly at the horizon belong to the next epoch, whose run phase
// first drains the cross-lane messages posted during this one. Drains
// schedule deliveries at send_time + cross_lane_latency, which the epoch
// length guarantees is >= horizon > horizon - 1 = engine.now(), so a drain
// never schedules into a lane's past.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "sim/engine.hpp"

namespace nfv::sim {

class EventLane {
 public:
  explicit EventLane(std::uint32_t id) : id_(id) {}

  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }

  /// Run this lane's engine up to (not including) `horizon`.
  void run_epoch(Cycles horizon) {
    engine_.run_until(horizon - 1);
    ++epochs_;
  }

  /// Number of epochs this lane has executed.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

 private:
  std::uint32_t id_;
  std::uint64_t epochs_ = 0;
  Engine engine_;
};

}  // namespace nfv::sim
