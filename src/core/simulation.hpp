// Public facade: build an NFVnice deployment and run it.
//
// This is the library's quickstart surface. A Simulation owns the event
// lanes (ShardRuntime: each lane an engine, mbuf pool, flow table and NF
// Manager), the simulated cores with their scheduling policies, and the
// traffic sources. Typical use:
//
//   nfvnice::Simulation sim;                        // defaults: NFVnice on
//   auto core = sim.add_core(SchedPolicy::kCfsBatch);
//   auto nf1 = sim.add_nf("low",  core, CostModel::fixed(120));
//   auto nf2 = sim.add_nf("med",  core, CostModel::fixed(270));
//   auto nf3 = sim.add_nf("high", core, CostModel::fixed(550));
//   auto chain = sim.add_chain("c", {nf1, nf2, nf3});
//   sim.add_udp_flow(chain, /*rate_pps=*/5e6);
//   sim.run_for_seconds(1.0);
//   sim.print_report(std::cout);
//
// The paper's "Default / CGroup / BKPR / NFVnice" configurations map to the
// feature toggles in PlatformConfig::manager.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "fault/fault_plan.hpp"
#include "fault/lifecycle.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "io/async_io.hpp"
#include "io/block_device.hpp"
#include "mgr/manager.hpp"
#include "nf/nf_task.hpp"
#include "obs/observability.hpp"
#include "pktio/mempool.hpp"
#include "sched/core.hpp"
#include "sim/engine.hpp"
#include "traffic/churn_source.hpp"
#include "traffic/tcp_source.hpp"
#include "traffic/udp_source.hpp"

namespace nfv::core {

struct Lane;
class ShardRuntime;

enum class SchedPolicy {
  kCfsNormal,   ///< SCHED_NORMAL (CFS with wakeup preemption).
  kCfsBatch,    ///< SCHED_BATCH (the scheduler NFVnice pairs best with).
  kRoundRobin,  ///< SCHED_RR with a configurable quantum.
  kFifo,        ///< SCHED_FIFO (run to completion; hogs starve the core).
};

const char* to_string(SchedPolicy policy);

struct PlatformConfig {
  double cpu_hz = kDefaultCpuHz;
  sched::CoreConfig core;
  mgr::ManagerConfig manager;
  std::uint32_t mempool_capacity = 1 << 20;
  /// Flow-table sizing and expiry (flow-state library, DESIGN.md §13). The
  /// default — grow on demand, no idle timeout — reproduces the historical
  /// behaviour exactly; setting flow_table.idle_timeout schedules a
  /// periodic expiry sweep that reclaims idle flows' dense ids.
  flow::FlowTable::Config flow_table;

  // Defaults applied to NFs added via add_nf (overridable per NF).
  // 16K descriptors per ring, OpenNetVM's NF_QUEUE_RINGSIZE: deep enough
  // that a weighted NF keeps a backlog across whole scheduler rotations —
  // CFS can only enforce cpu.shares on tasks that stay runnable.
  std::uint32_t rx_capacity = 16384;
  std::uint32_t tx_capacity = 16384;
  /// Per-packet cycles added on a cross-socket buffer hand-off.
  Cycles numa_penalty = 300;
  double high_watermark = 0.80;
  double low_watermark = 0.60;

  /// Packets an NF executes per engine event (run-to-completion burst; see
  /// DESIGN.md §9). Per-packet costs, timestamps and preemption points are
  /// exact at any setting; 1 forces the seed's one-event-per-packet
  /// behaviour (the equivalence suite runs there).
  std::uint32_t nf_burst_window = 32;
  /// Arrivals a traffic source delivers per timer event (exact per-packet
  /// timestamps; 1 = one event per packet).
  std::uint32_t source_burst = 8;

  // -- sharded engine (DESIGN.md §14) ---------------------------------------
  /// 0 = unsharded: one event lane owns every core and interleaves them all
  /// in one event queue with no cross-core latency, on the calling thread.
  /// N >= 1 = sharded mode: one event lane per core, driven by
  /// min(N, cores) worker threads under a conservative-lookahead barrier.
  /// Sharded results are byte-identical for every N >= 1 (the lane
  /// decomposition is fixed by the topology; N only picks the parallelism)
  /// but differ from unsharded ones, since a packet crossing cores pays
  /// cross_lane_latency. When left at 0, the NFV_SIM_SHARDS environment
  /// variable (a positive integer) selects sharded mode — mirroring
  /// NFV_BENCH_WORKERS.
  std::uint32_t sim_shards = 0;
  /// Modelled cross-lane transit time: a packet handed to an NF on another
  /// core arrives this many cycles later. It also bounds the lanes'
  /// conservative lookahead (the epoch length), so lower values cost more
  /// barriers per simulated second. Default 10 us at 2.6 GHz — one manager
  /// wakeup period, comparable to a loaded inter-core ring + wakeup hop.
  Cycles cross_lane_latency = 26'000;

  /// Unread. perfbench/ still sets it; it goes with perfbench's next change.
  sim::EngineBackend engine_backend = sim::EngineBackend::kHeap;

  /// Force every per-burst knob to `window` (1 = the seed's fully
  /// per-packet event schedule; used by the equivalence tests).
  void set_burst_window(std::uint32_t window) {
    nf_burst_window = window;
    source_burst = window;
  }

  /// Convenience: turn the whole NFVnice control plane on/off (the paper's
  /// "Default" bar is everything off; cgroups/backpressure can then be
  /// re-enabled individually for the "CGroup"/"BKPR" bars).
  void set_nfvnice(bool enabled) {
    manager.enable_cgroups = enabled;
    manager.enable_backpressure = enabled;
    manager.enable_ecn = enabled;
  }
};

struct NfOptions {
  double priority = 1.0;
  std::uint32_t rx_capacity = 0;  ///< 0 = platform default.
  std::uint32_t tx_capacity = 0;
  std::uint32_t batch_size = 32;
  std::uint32_t burst_window = 0;  ///< 0 = PlatformConfig::nf_burst_window.
  double sample_interval_us = 1000.0;  ///< cost-sampling period (§3.5, 1 kHz).
};

struct UdpOptions {
  std::uint16_t size_bytes = 64;
  double start_seconds = 0.0;
  double stop_seconds = -1.0;
  std::uint8_t cost_classes = 0;
  /// Inter-arrival jitter fraction / Poisson toggle / RNG seed, forwarded
  /// to traffic::UdpSource::Config. The seed makes runs reproducible: two
  /// simulations built identically with the same seeds replay the exact
  /// same event sequence (the determinism suite depends on it).
  double jitter_fraction = 0.1;
  bool poisson = false;
  std::uint64_t seed = 0x9e3779b9ULL;
  std::uint32_t burst = 0;  ///< Arrivals per timer event; 0 = platform default.
};

struct ChurnOptions {
  std::uint32_t concurrent_flows = 1024;
  std::uint16_t size_bytes = 64;
  double start_seconds = 0.0;
  double stop_seconds = -1.0;
  /// Heavy-tailed flow lengths: packets per flow ~ Pareto(min, alpha).
  double pareto_alpha = 2.0;
  double pareto_min_packets = 2.0;
  std::uint64_t seed = 0xC0FFEEULL;
  std::uint32_t burst = 0;  ///< Arrivals per timer event; 0 = platform default.
};

struct TcpOptions {
  std::uint16_t size_bytes = 1500;
  double rtt_seconds = 200e-6;
  double start_seconds = 0.0;
  double stop_seconds = -1.0;
  bool ecn_capable = true;
  std::uint32_t max_cwnd = 4096;
  std::uint32_t burst = 0;  ///< Paced packets per event; 0 = platform default.
};

/// Point-in-time dump of every counter a bench needs; subtract two
/// snapshots to measure a window.
struct NfMetrics {
  std::string name;
  std::uint64_t arrivals = 0;
  std::uint64_t processed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t rx_full_drops = 0;
  std::uint64_t wasted_drops_here = 0;
  std::uint64_t downstream_drops = 0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  /// In-flight burst packets lost to a crash (fault model, DESIGN.md §11).
  std::uint64_t crash_drops = 0;
  Cycles runtime = 0;
  double avg_sched_latency_ms = 0.0;
  std::uint64_t rx_queue_len = 0;

  NfMetrics operator-(const NfMetrics& rhs) const;
};

struct ChainMetrics {
  std::uint64_t entry_admitted = 0;
  std::uint64_t entry_throttle_drops = 0;
  /// Shed by the ingress admission gate (DESIGN.md §17); 0 unless the
  /// chain has a flow class. A distinct sink from entry_throttle_drops.
  std::uint64_t admission_discards = 0;
  std::uint64_t egress_packets = 0;
  std::uint64_t egress_bytes = 0;

  ChainMetrics operator-(const ChainMetrics& rhs) const;
};

class Simulation {
 public:
  explicit Simulation(PlatformConfig config = {});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // -- topology -------------------------------------------------------------
  /// Add a simulated core running `policy`; returns its index.
  /// `numa_node` places the core on a socket; chains hopping between
  /// sockets pay the per-packet remote-memory penalty (§1's NUMA concern).
  std::size_t add_core(SchedPolicy policy, double rr_quantum_ms = 100.0,
                       int numa_node = 0);

  /// Add an NF pinned to `core_index`. Returns the NfId used in chains.
  flow::NfId add_nf(std::string name, std::size_t core_index,
                    nf::CostModel cost, NfOptions options = {});

  flow::ChainId add_chain(std::string name, std::vector<flow::NfId> hops);

  /// Attach an async I/O engine (shared simulated disk) to an NF.
  io::AsyncIoEngine& attach_io(flow::NfId nf,
                               io::AsyncIoEngine::Config io_config);

  // -- faults (DESIGN.md §11) -------------------------------------------------
  /// Install a fault plan: enables the manager's lifecycle watchdog and
  /// arms an injector that fires the plan's crash/stall/degrade events at
  /// their scheduled times. Call before the first run_for_seconds(). A
  /// simulation without a plan schedules no watchdog events at all, so
  /// unfaulted runs replay byte-for-byte against earlier versions.
  void set_fault_plan(fault::FaultPlan plan);

  /// Per-chain policy while an NF on the chain is down (default: the
  /// LifecycleConfig's default_dead_policy, i.e. backpressure). Sharded
  /// simulations apply the policy on every lane (routing decisions happen
  /// wherever the packet is).
  void set_dead_policy(flow::ChainId chain, fault::DeadNfPolicy policy);

  // -- latency SLOs (DESIGN.md §16) -------------------------------------------
  /// Give `chain` a tail-latency target: its p99 chain-completion latency
  /// should stay under `target_us` microseconds. Telemetry (the per-chain
  /// tail estimator and the violation clock) runs for every targeted chain;
  /// the share-boost controller additionally requires
  /// PlatformConfig::manager.slo.enabled (and enable_cgroups to act on the
  /// boosts). 0 removes the target. Sharded simulations apply the target
  /// on every lane, like set_dead_policy.
  void set_chain_slo(flow::ChainId chain, double target_us);

  // -- overload control (DESIGN.md §17) ---------------------------------------
  /// Give `chain` a flow class (`class <chain> priority= utility=`) and arm
  /// the ingress admission gate for it: when the chain's first-hop queue
  /// crosses the engage watermark or its SLO violation clock is running,
  /// the lowest-utility classes sharing that queue are shed first (token-
  /// bucket trickle, engage/release hysteresis, minimum hold). Runs that
  /// never register a class execute no admission code and stay
  /// byte-identical to earlier versions. Sharded simulations register the
  /// class on every lane, like set_chain_slo. Call before the first run.
  void set_chain_class(flow::ChainId chain, double priority, double utility);

  /// Merged per-chain admission summary. `classed` is false (and the rest
  /// zero) for chains without a flow class; counters are summed over lanes
  /// (only the chain's home lane ever increments them), `engaged` is true
  /// if any lane's gate is currently shedding the class.
  struct ChainAdmissionReport {
    bool classed = false;
    bool engaged = false;
    double priority = 1.0;
    double utility = 1.0;
    std::uint64_t engagements = 0;
    std::uint64_t releases = 0;
    std::uint64_t discards = 0;
    std::uint64_t trickle_admits = 0;
  };
  [[nodiscard]] ChainAdmissionReport chain_admission_report(
      flow::ChainId chain) const;

  /// Merged per-chain tail/SLO state: the window snapshot (exact nearest-
  /// rank quantiles), the violation clock, the controller's current boost
  /// and the configured target. Sharded simulations fold the per-lane
  /// replicas — the window lives on the last hop's lane, violation time is
  /// owner-lane-only (summing is exact), boost is the max over lanes.
  struct ChainSloReport {
    Cycles target = 0;
    Cycles violation_cycles = 0;
    double boost = 1.0;
    obs::LatencyEstimator::Snapshot tail;
  };
  [[nodiscard]] ChainSloReport chain_slo_report(flow::ChainId chain) const;

  /// Whole-run chain-completion latency quantile in cycles, from the
  /// log-bucketed per-chain histogram (sharded: per-lane histograms
  /// merged). Complements chain_slo_report().tail, which covers only the
  /// estimator's sliding window of recent egresses.
  [[nodiscard]] std::uint64_t chain_latency_quantile(flow::ChainId chain,
                                                     double q) const;

  [[nodiscard]] fault::NfLifecycle nf_lifecycle(flow::NfId id) const;
  [[nodiscard]] const fault::NfLifecycleStats& nf_lifecycle_stats(
      flow::NfId id) const;

  // -- traffic ---------------------------------------------------------------
  flow::FlowId add_udp_flow(flow::ChainId chain, double rate_pps,
                            UdpOptions options = {});
  std::pair<flow::FlowId, traffic::TcpSource*> add_tcp_flow(
      flow::ChainId chain, TcpOptions options = {});

  /// A churning flow population: `options.concurrent_flows` live flows
  /// sharing `rate_pps`, each a heavy-tailed number of packets long and
  /// replaced by a fresh 5-tuple on completion (rule installed by the
  /// source). Pair with PlatformConfig::flow_table.idle_timeout so retired
  /// flows actually leave the table.
  traffic::ChurnSource& add_churn_workload(flow::ChainId chain,
                                           double rate_pps,
                                           ChurnOptions options = {});

  // -- execution --------------------------------------------------------------
  /// Advance simulated time. The first call starts the manager's periodic
  /// threads and all traffic sources.
  void run_for_seconds(double seconds);
  [[nodiscard]] double now_seconds() const;

  // -- metrics ----------------------------------------------------------------
  [[nodiscard]] NfMetrics nf_metrics(flow::NfId id) const;
  [[nodiscard]] ChainMetrics chain_metrics(flow::ChainId id) const;
  /// CPU utilisation of an NF over the whole run so far (runtime/elapsed).
  [[nodiscard]] double nf_cpu_share(flow::NfId id) const;

  [[nodiscard]] const CpuClock& clock() const { return clock_; }
  [[nodiscard]] sched::Core& core(std::size_t index) { return *cores_[index]; }
  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  [[nodiscard]] nf::NfTask& nf(flow::NfId id) { return *nfs_[id]; }
  [[nodiscard]] std::size_t nf_count() const { return nfs_.size(); }
  /// The Manager replica that owns (runs) NF `id`; per-NF queries go here.
  [[nodiscard]] mgr::Manager& mgr_of(flow::NfId id) const;

  /// Single-lane accessors: the event engine, Manager, mbuf pool, block
  /// device, flow table and metrics/trace context of the simulation's one
  /// event lane — always the case unsharded, and sharded with one core.
  /// With several lanes (or none yet) there is no single object to return,
  /// so they throw std::logic_error in every build type: use mgr_of() and
  /// the merged reports (chain_metrics, report_json, ...) instead.
  [[nodiscard]] sim::Engine& engine();
  [[nodiscard]] mgr::Manager& manager();
  [[nodiscard]] io::BlockDevice& disk();
  [[nodiscard]] pktio::MbufPool& pool();
  [[nodiscard]] flow::FlowTable& flow_table();
  [[nodiscard]] const flow::FlowTable& flow_table() const;
  /// Every component registers its instruments into its lane's context.
  [[nodiscard]] obs::Observability& observability();
  [[nodiscard]] const obs::Observability& observability() const;

  /// True when every core runs on its own event lane (DESIGN.md §14).
  [[nodiscard]] bool sharded() const;
  /// Flip the Manager control-plane features (the config loader's `mode`)
  /// in the platform config and on every lane, existing and future.
  void set_features(bool cgroups, bool backpressure, bool ecn);
  [[nodiscard]] flow::ChainRegistry& chains() { return chains_; }
  [[nodiscard]] PlatformConfig& config() { return config_; }

  /// Human-readable per-NF / per-chain summary.
  void print_report(std::ostream& out) const;

  // -- observability ----------------------------------------------------------
  /// Start recording control-plane trace events (context switches, wakeups,
  /// backpressure transitions, cpu.shares writes, ECN marks, drops) into
  /// `recorder`. Also names the recorder's lanes after the topology. The
  /// recorder is not owned and must outlive the simulation's activity;
  /// export with recorder.write_chrome_json(). Call before run_for_seconds
  /// to capture a complete stream.
  void attach_trace(obs::TraceRecorder& recorder);

  /// Machine-readable counterpart of print_report(): one JSON object with
  /// "meta", "nfs", "chains", "cores" sections plus the full metrics
  /// registry dump under "metrics". Byte-deterministic for a given
  /// simulation state — two same-seed runs serialize identically.
  void report_json(std::ostream& out) const;
  [[nodiscard]] std::string report_json() const;

 private:
  void ensure_started();
  pktio::FlowKey next_flow_key(std::uint8_t proto);
  [[nodiscard]] Cycles now_cycles() const;
  /// The simulation's one lane; throws std::logic_error unless there is
  /// exactly one.
  [[nodiscard]] Lane& only_lane() const;
  /// The lane NF `id` runs on.
  [[nodiscard]] std::uint32_t lane_of(flow::NfId id) const;
  /// The lane a chain's traffic enters on (its first hop's lane).
  [[nodiscard]] Lane& home_lane(flow::ChainId chain);
  /// Whole-run chain-completion latency, the lanes' histograms merged.
  [[nodiscard]] Histogram merged_chain_latency(flow::ChainId chain) const;
  /// The slice of the installed fault plan that belongs to one lane.
  [[nodiscard]] fault::FaultPlan lane_fault_plan(std::size_t lane_id) const;
  /// Sharded: give a lane a private trace buffer (see attach_trace).
  void attach_lane_trace(Lane& lane);
  /// Move new per-lane trace events into the user's recorder, ordered by
  /// (timestamp, lane, intra-lane sequence).
  void merge_lane_traces();

  PlatformConfig config_;
  CpuClock clock_;
  // Declared before the lanes: every lane's Manager holds a reference.
  flow::ChainRegistry chains_;
  // Owns the lanes; declared before every component that runs on them, so
  // workers join and engines die last.
  std::unique_ptr<ShardRuntime> shard_;
  std::vector<std::unique_ptr<sched::Core>> cores_;
  std::vector<std::unique_ptr<nf::NfTask>> nfs_;
  std::vector<std::unique_ptr<io::AsyncIoEngine>> io_engines_;
  std::vector<std::unique_ptr<traffic::UdpSource>> udp_sources_;
  std::vector<std::unique_ptr<traffic::TcpSource>> tcp_sources_;
  std::vector<std::unique_ptr<traffic::ChurnSource>> churn_sources_;
  std::uint32_t next_ip_ = 1;
  bool started_ = false;

  std::vector<std::uint32_t> nf_core_;  ///< Core index per NF.
  std::vector<std::uint32_t> io_lane_;  ///< Lane index per io engine.
  /// Fault plan held until start, then split into per-lane plans.
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  /// Sharded only: the recorder the lanes' trace buffers merge into.
  obs::TraceRecorder* user_trace_ = nullptr;
};

}  // namespace nfv::core

/// Friendly alias so examples read naturally.
namespace nfvnice = nfv::core;
