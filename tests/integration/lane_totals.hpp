// Whole-simulation totals that read the same at any lane count: per-lane
// state summed through the per-NF accessor (mgr_of) and the merged report,
// never through the single-lane accessors, which throw with several lanes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "core/simulation.hpp"

namespace nfv::core {

/// Value of the merged metric `name` in a report_json() document, or 0 when
/// no lane registered it.
inline double merged_metric(const std::string& report, const std::string& name) {
  const std::size_t at = report.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return 0.0;
  const std::string value_key = "\"value\":";
  return std::stod(
      report.substr(report.find(value_key, at) + value_key.size(), 32));
}

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
  const std::string report = sim.report_json();
  // Every lane registers the pool gauge; the shard counters exist only
  // sharded, so only their absence reads as 0.
  EXPECT_NE(report.find("\"name\":\"sim.mbufs_in_use\""), std::string::npos);
  t.mbufs_in_use =
      static_cast<std::uint64_t>(merged_metric(report, "sim.mbufs_in_use"));
  t.in_transit = static_cast<std::uint64_t>(
      merged_metric(report, "mgr.shard_tx_msgs") -
      merged_metric(report, "mgr.shard_rx_msgs"));
  return t;
}

}  // namespace nfv::core
