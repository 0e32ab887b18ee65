// Standalone timings of single layer functions, taken at the sizes a
// workload's run reached. A probe times its operation in a tight loop
// outside the simulation; multiplied by the run's count of that operation
// it estimates the layer's share of the run's wall time.
#pragma once

#include <cstddef>

#include "spans.hpp"

namespace perfbench {

struct ProbeSizes {
  std::size_t pending_depth = 1;  ///< Engine events pending mid-run.
  std::size_t nfs_per_core = 1;   ///< Runnable tasks on the busiest core.
  bool cfs_batch = true;
  std::size_t burst = 32;         ///< NF burst window.
  std::size_t flow_table_size = 1;
  std::size_t lanes = 1;          ///< Event lanes and their worker threads.
  std::size_t workers = 1;
};

struct ProbeResult {
  double dispatch_ns = 0.0;  ///< Engine::schedule_at + run_until, one event.
  double pick_ns = 0.0;      ///< CFS pick_next + on_run_end + enqueue.
  double ring_burst_ns = 0.0;  ///< Ring enqueue_burst + dequeue_burst.
  double mbuf_burst_ns = 0.0;  ///< MbufPool alloc_burst + free_burst.
  double lookup_ns = 0.0;      ///< FlowTable::lookup, one key.
  double latency_record_ns = 0.0;  ///< LatencyEstimator::record.
  double barrier_us = 0.0;     ///< ShardExecutor::run_phase, no-op lanes.
};

/// Run every probe once at `sizes`, each inside a span named after it.
ProbeResult run_probes(const ProbeSizes& sizes, SpanRecorder& spans);

}  // namespace perfbench
