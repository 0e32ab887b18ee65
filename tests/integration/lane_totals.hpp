// Whole-simulation totals that read the same at any lane count: per-lane
// state summed through the per-NF accessor (mgr_of) and the merged metrics,
// never through the single-lane accessors, which throw with several lanes.
#pragma once

#include <cstdint>
#include <set>

#include "core/simulation.hpp"

namespace nfv::core {

struct LaneTotals {
  std::uint64_t wire_ingress = 0;
  std::uint64_t mbufs_in_use = 0;
  /// Cross-lane messages posted but not yet received: an upper bound on
  /// the packets between lanes (always 0 unsharded).
  std::uint64_t in_transit = 0;
};

inline LaneTotals lane_totals(const Simulation& sim) {
  LaneTotals t;
  // Each lane's Manager replica admits the traffic of the chains homed on
  // it: sum over the distinct replicas.
  std::set<const mgr::Manager*> managers;
  for (flow::NfId id = 0; id < sim.nf_count(); ++id) {
    managers.insert(&sim.mgr_of(id));
  }
  for (const mgr::Manager* mgr : managers) t.wire_ingress += mgr->wire_ingress();
  // Every lane registers the pool gauge; the shard counters exist only
  // sharded. Simulation::metric throws for a series no lane registered.
  t.mbufs_in_use = static_cast<std::uint64_t>(sim.metric("sim.mbufs_in_use"));
  if (sim.sharded()) {
    t.in_transit = static_cast<std::uint64_t>(sim.metric("mgr.shard_tx_msgs") -
                                              sim.metric("mgr.shard_rx_msgs"));
  }
  return t;
}

}  // namespace nfv::core
