// The benchmark's four workloads, built through the public Simulation API.
//
// Every workload pins what runs: the execution path (sim_shards), the
// engine backend and the NFVnice feature set are set explicitly, so the
// NFV_SIM_SHARDS / NFV_ENGINE_BACKEND environment overrides never apply.
// Every traffic source's seed is derived from the workload seed, so the
// simulator receives only generated inputs and one seed names one input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/simulation.hpp"
#include "nfs/monitor.hpp"

namespace perfbench {

struct Instance;

struct Workload {
  const char* name;
  /// Simulated seconds one timed repetition advances.
  double rep_sim_seconds;
  /// True when the workload runs on the sharded engine.
  bool sharded;
  /// Workload-specific platform knobs, applied on top of the pinned ones.
  void (*configure)(nfv::core::PlatformConfig&);
  /// Adds the topology and the seeded traffic sources.
  void (*build)(nfv::core::Simulation&, std::uint64_t seed, Instance&);
};

/// The workload named `name`, or nullptr.
const Workload* find_workload(std::string_view name);

/// Shard count the sharded workloads use: min(4, host threads).
std::uint32_t default_shards();

/// A built simulation plus the state its NFs reference. `monitor` is
/// declared first so it outlives the simulation that calls into it.
struct Instance {
  std::unique_ptr<nfv::nfs::FlowMonitor> monitor;
  std::unique_ptr<nfv::core::Simulation> sim;
  std::size_t lanes = 0;    ///< Event lanes (0 on the legacy path).
  std::size_t workers = 0;  ///< Lane worker threads (0 on the legacy path).
  std::size_t max_nfs_per_core = 0;
  bool cfs_batch = true;    ///< Scheduler class of the busiest core.
};

/// Step 1 of set-up: construct the Simulation. `shards` overrides the
/// workload's execution path: -1 keeps it, 0 forces the legacy path,
/// N > 0 runs the sharded engine with N workers.
void construct(const Workload& w, Instance& inst, int shards = -1);

/// Step 2 of set-up: cores, NFs, chains, classes and traffic sources.
void build_topology(const Workload& w, std::uint64_t seed, Instance& inst);

/// Derive the seed of the `index`-th traffic source from the workload seed.
std::uint64_t source_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
