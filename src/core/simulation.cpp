#include "core/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/shard_runtime.hpp"
#include "obs/json.hpp"
#include "sched/cfs.hpp"
#include "sched/fifo.hpp"
#include "sched/rr.hpp"

namespace nfv::core {

const char* to_string(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kCfsNormal:
      return "NORMAL";
    case SchedPolicy::kCfsBatch:
      return "BATCH";
    case SchedPolicy::kRoundRobin:
      return "RR";
    case SchedPolicy::kFifo:
      return "FIFO";
  }
  return "?";
}

NfMetrics NfMetrics::operator-(const NfMetrics& rhs) const {
  NfMetrics d = *this;
  d.arrivals -= rhs.arrivals;
  d.processed -= rhs.processed;
  d.forwarded -= rhs.forwarded;
  d.rx_full_drops -= rhs.rx_full_drops;
  d.wasted_drops_here -= rhs.wasted_drops_here;
  d.downstream_drops -= rhs.downstream_drops;
  d.voluntary_switches -= rhs.voluntary_switches;
  d.involuntary_switches -= rhs.involuntary_switches;
  d.crash_drops -= rhs.crash_drops;
  d.runtime -= rhs.runtime;
  return d;
}

ChainMetrics ChainMetrics::operator-(const ChainMetrics& rhs) const {
  ChainMetrics d = *this;
  d.entry_admitted -= rhs.entry_admitted;
  d.entry_throttle_drops -= rhs.entry_throttle_drops;
  d.admission_discards -= rhs.admission_discards;
  d.egress_packets -= rhs.egress_packets;
  d.egress_bytes -= rhs.egress_bytes;
  return d;
}

namespace {

/// The lane's block device, built on first use.
io::BlockDevice& lane_disk(Lane& lane) {
  if (!lane.disk) lane.disk = std::make_unique<io::BlockDevice>(lane.ev.engine());
  return *lane.disk;
}

}  // namespace

Simulation::Simulation(PlatformConfig config)
    : config_(config), clock_(config.cpu_hz) {
  // Sharded engine opt-in (DESIGN.md §14): an explicit config wins; when it
  // is left at 0 the NFV_SIM_SHARDS environment variable applies, so every
  // existing binary can be resharded without a rebuild.
  if (config_.sim_shards == 0) {
    if (const char* env = std::getenv("NFV_SIM_SHARDS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) config_.sim_shards = static_cast<std::uint32_t>(v);
    }
  }
  // The admission trickle bucket is specified in packets per second; give
  // it this platform's clock so the cycle conversion is right (no-op for
  // runs that never register a flow class).
  config_.manager.admission.cpu_hz = config_.cpu_hz;
  // Unsharded, the runtime builds its one lane (pool, flow table, Manager,
  // probes) right here; sharded, each add_core() adds a lane.
  shard_ = std::make_unique<ShardRuntime>(
      config_.sim_shards, config_.cross_lane_latency, config_.manager,
      config_.flow_table, config_.mempool_capacity, chains_);
}

Simulation::~Simulation() = default;

void Simulation::set_features(bool cgroups, bool backpressure, bool ecn) {
  config_.manager.enable_cgroups = cgroups;
  config_.manager.enable_backpressure = backpressure;
  config_.manager.enable_ecn = ecn;
  shard_->set_features(cgroups, backpressure, ecn);
}

std::size_t Simulation::add_core(SchedPolicy policy, double rr_quantum_ms,
                                 int numa_node) {
  sched::SchedParams params = sched::SchedParams::defaults(clock_);
  params.rr_quantum = clock_.from_millis(rr_quantum_ms);

  std::unique_ptr<sched::Scheduler> scheduler;
  switch (policy) {
    case SchedPolicy::kCfsNormal:
      scheduler = std::make_unique<sched::CfsScheduler>(params, /*batch=*/false);
      break;
    case SchedPolicy::kCfsBatch:
      scheduler = std::make_unique<sched::CfsScheduler>(params, /*batch=*/true);
      break;
    case SchedPolicy::kRoundRobin:
      scheduler = std::make_unique<sched::RrScheduler>(params);
      break;
    case SchedPolicy::kFifo:
      scheduler = std::make_unique<sched::FifoScheduler>();
      break;
  }
  const std::size_t index = cores_.size();
  sched::CoreConfig core_cfg = config_.core;
  core_cfg.numa_node = numa_node;
  if (sharded()) {
    // One lane per core. NFs registered before this lane existed become
    // remote placeholders on it.
    Lane& lane = shard_->add_lane();
    for (flow::NfId id = 0; id < nfs_.size(); ++id) {
      lane.manager->register_remote_nf(id, nfs_[id]->config().name,
                                       lane_of(id));
    }
    if (fault_plan_) lane.manager->enable_lifecycle();
    if (user_trace_) attach_lane_trace(lane);
  }
  Lane& lane = shard_->lane(shard_->lane_of_core(index));
  cores_.push_back(std::make_unique<sched::Core>(
      lane.ev.engine(), std::move(scheduler), core_cfg,
      "core" + std::to_string(index)));
  cores_.back()->set_observability(&lane.obs,
                                   static_cast<std::uint32_t>(index));
  return index;
}

flow::NfId Simulation::add_nf(std::string name, std::size_t core_index,
                              nf::CostModel cost, NfOptions options) {
  assert(core_index < cores_.size());
  nf::NfTask::Config cfg;
  cfg.name = std::move(name);
  cfg.cost = cost;
  cfg.rx_capacity = options.rx_capacity ? options.rx_capacity : config_.rx_capacity;
  cfg.tx_capacity = options.tx_capacity ? options.tx_capacity : config_.tx_capacity;
  cfg.batch_size = options.batch_size;
  cfg.burst_window =
      options.burst_window ? options.burst_window : config_.nf_burst_window;
  cfg.high_watermark = config_.high_watermark;
  cfg.low_watermark = config_.low_watermark;
  cfg.sample_interval = clock_.from_micros(options.sample_interval_us);
  cfg.numa_penalty = config_.numa_penalty;
  cfg.sample_window = clock_.from_millis(100.0);
  cfg.priority = options.priority;

  const std::uint32_t home = shard_->lane_of_core(core_index);
  nfs_.push_back(
      std::make_unique<nf::NfTask>(shard_->lane(home).ev.engine(), cfg));
  nf::NfTask* task = nfs_.back().get();
  const auto id = static_cast<flow::NfId>(nfs_.size() - 1);
  nf_core_.push_back(static_cast<std::uint32_t>(core_index));
  // Register under the same global id everywhere: local on the owning
  // lane, a named placeholder on every other lane.
  for (const auto& lane : shard_->lanes()) {
    if (lane->id == home) {
      lane->manager->register_nf_at(id, task, cores_[core_index].get());
    } else {
      lane->manager->register_remote_nf(id, task->config().name, home);
    }
  }
  return id;
}

flow::ChainId Simulation::add_chain(std::string name,
                                    std::vector<flow::NfId> hops) {
  assert(!started_ && "define chains before traffic starts");
  return chains_.add(std::move(name), std::move(hops));
}

io::AsyncIoEngine& Simulation::attach_io(flow::NfId nf_id,
                                         io::AsyncIoEngine::Config io_config) {
  Lane& lane = shard_->lane(lane_of(nf_id));
  io_engines_.push_back(std::make_unique<io::AsyncIoEngine>(
      lane.ev.engine(), lane_disk(lane), io_config));
  io_lane_.push_back(lane.id);
  nfs_[nf_id]->attach_io(io_engines_.back().get());
  io_engines_.back()->set_observability(&lane.obs, nfs_[nf_id]->config().name);
  return *io_engines_.back();
}

void Simulation::set_fault_plan(fault::FaultPlan plan) {
  assert(!started_ && "install the fault plan before the first run");
  assert(!fault_plan_ && "only one fault plan per simulation");
  fault_plan_ = std::make_unique<fault::FaultPlan>(std::move(plan));
  // Lifecycle must be armed on *every* replica (lanes added later arm it in
  // add_core): remote-death broadcasts and dead-hop routing consult it
  // wherever the packet happens to be.
  for (const auto& lane : shard_->lanes()) lane->manager->enable_lifecycle();
}

void Simulation::set_dead_policy(flow::ChainId chain,
                                 fault::DeadNfPolicy policy) {
  for (const auto& lane : shard_->lanes()) {
    lane->manager->set_dead_policy(chain, policy);
  }
}

Simulation::ChainSloReport Simulation::chain_slo_report(
    flow::ChainId chain) const {
  ChainSloReport out;
  std::vector<std::uint64_t> samples;
  std::uint64_t total = 0;
  for (const auto& lane : shard_->lanes()) {
    const mgr::Manager& m = *lane->manager;
    m.chain_tail(chain).append_samples(samples);
    total += m.chain_tail(chain).total_count();
    const mgr::ChainSloState& st = m.chain_slo(chain);
    out.target = std::max(out.target, st.target);
    out.violation_cycles += st.violation_cycles;
    out.boost = std::max(out.boost, st.boost);
  }
  out.tail = obs::LatencyEstimator::snapshot_of(std::move(samples), total);
  return out;
}

std::uint64_t Simulation::chain_latency_quantile(flow::ChainId chain,
                                                 double q) const {
  return merged_chain_latency(chain).value_at_quantile(q);
}

void Simulation::set_chain_slo(flow::ChainId chain, double target_us) {
  const auto target = static_cast<Cycles>(clock_.from_micros(target_us));
  for (const auto& lane : shard_->lanes()) {
    lane->manager->set_slo_target(chain, target);
  }
}

void Simulation::set_chain_class(flow::ChainId chain, double priority,
                                 double utility) {
  assert(!started_ && "register flow classes before traffic starts");
  bp::ClassSpec spec;
  spec.priority = priority;
  spec.utility = utility;
  // Every lane learns the class: the home lane runs the gate, the tail
  // lane needs has_class() to decide whether to broadcast kChainOverload.
  for (const auto& lane : shard_->lanes()) {
    lane->manager->set_chain_class(chain, spec);
  }
}

Simulation::ChainAdmissionReport Simulation::chain_admission_report(
    flow::ChainId chain) const {
  ChainAdmissionReport out;
  for (const auto& lane : shard_->lanes()) {
    const bp::AdmissionController* adm = lane->manager->admission();
    if (adm == nullptr || !adm->has_class(chain)) continue;
    out.classed = true;
    const bp::ClassSpec* spec = adm->class_of(chain);
    out.priority = spec->priority;
    out.utility = spec->utility;
    out.engaged = out.engaged || adm->engaged(chain);
    const bp::AdmissionClassStats& st = adm->stats(chain);
    out.engagements += st.engagements;
    out.releases += st.releases;
    out.discards += st.discards;
    out.trickle_admits += st.trickle_admits;
  }
  return out;
}

fault::NfLifecycle Simulation::nf_lifecycle(flow::NfId id) const {
  return mgr_of(id).nf_lifecycle(id);
}

const fault::NfLifecycleStats& Simulation::nf_lifecycle_stats(
    flow::NfId id) const {
  return mgr_of(id).nf_lifecycle_stats(id);
}

bool Simulation::sharded() const { return shard_->sharded(); }

Lane& Simulation::only_lane() const {
  if (shard_->size() != 1) {
    throw std::logic_error(
        "this accessor needs a simulation with exactly one event lane; with "
        "several lanes, query per NF (mgr_of) or use the merged reports");
  }
  return shard_->lane(0);
}

sim::Engine& Simulation::engine() { return only_lane().ev.engine(); }

mgr::Manager& Simulation::manager() { return *only_lane().manager; }

pktio::MbufPool& Simulation::pool() { return only_lane().pool; }

io::BlockDevice& Simulation::disk() { return lane_disk(only_lane()); }

flow::FlowTable& Simulation::flow_table() { return only_lane().flows; }

const flow::FlowTable& Simulation::flow_table() const {
  return only_lane().flows;
}

obs::Observability& Simulation::observability() { return only_lane().obs; }

const obs::Observability& Simulation::observability() const {
  return only_lane().obs;
}

Cycles Simulation::now_cycles() const { return shard_->now(); }

std::uint32_t Simulation::lane_of(flow::NfId id) const {
  return shard_->lane_of_core(nf_core_[id]);
}

mgr::Manager& Simulation::mgr_of(flow::NfId id) const {
  return *shard_->lane(lane_of(id)).manager;
}

Histogram Simulation::merged_chain_latency(flow::ChainId chain) const {
  // Egress (and hence latency recording) happens on the last hop's lane.
  // Same bucketing as mgr::ChainLatency, so quantiles come out of the
  // merged buckets exactly as a single-registry run would produce them.
  Histogram merged(1ULL << 40, 8);
  for (const auto& lane : shard_->lanes()) {
    merged.merge(lane->manager->chain_latency(chain));
  }
  return merged;
}

Lane& Simulation::home_lane(flow::ChainId chain) {
  const auto& hops = chains_.get(chain).hops;
  assert(!hops.empty() && "a chain needs at least one hop");
  return shard_->lane(lane_of(hops.front()));
}

pktio::FlowKey Simulation::next_flow_key(std::uint8_t proto) {
  pktio::FlowKey key;
  key.src_ip = 0x0a000000u + next_ip_++;
  key.dst_ip = 0x0a800001u;
  key.src_port = 10000;
  key.dst_port = 80;
  key.proto = proto;
  return key;
}

flow::FlowId Simulation::add_udp_flow(flow::ChainId chain, double rate_pps,
                                      UdpOptions options) {
  const pktio::FlowKey key = next_flow_key(pktio::kProtoUdp);
  // The flow lives on its chain's home lane — the first hop's lane, where
  // the source injects and the flow table is consulted.
  Lane& home = home_lane(chain);
  const flow::FlowId flow_id = home.flows.install(key, chain);

  traffic::UdpSource::Config cfg;
  cfg.key = key;
  cfg.rate_pps = rate_pps;
  cfg.size_bytes = options.size_bytes;
  cfg.start_time = clock_.from_seconds(options.start_seconds);
  cfg.stop_time = options.stop_seconds < 0
                      ? Cycles{-1}
                      : clock_.from_seconds(options.stop_seconds);
  cfg.cost_classes = options.cost_classes;
  cfg.jitter_fraction = options.jitter_fraction;
  cfg.poisson = options.poisson;
  cfg.seed = options.seed;
  cfg.burst = options.burst ? options.burst : config_.source_burst;

  udp_sources_.push_back(std::make_unique<traffic::UdpSource>(
      home.ev.engine(), *home.manager, home.pool, clock_, cfg));
  if (started_) udp_sources_.back()->start();
  return flow_id;
}

std::pair<flow::FlowId, traffic::TcpSource*> Simulation::add_tcp_flow(
    flow::ChainId chain, TcpOptions options) {
  const pktio::FlowKey key = next_flow_key(pktio::kProtoTcp);
  Lane& home = home_lane(chain);
  const flow::FlowId flow_id = home.flows.install(key, chain);

  traffic::TcpSource::Config cfg;
  cfg.key = key;
  cfg.size_bytes = options.size_bytes;
  cfg.rtt = clock_.from_seconds(options.rtt_seconds);
  cfg.ecn_capable = options.ecn_capable;
  cfg.max_cwnd = options.max_cwnd;
  cfg.start_time = clock_.from_seconds(options.start_seconds);
  cfg.stop_time = options.stop_seconds < 0
                      ? Cycles{-1}
                      : clock_.from_seconds(options.stop_seconds);
  cfg.burst = options.burst ? options.burst : config_.source_burst;

  tcp_sources_.push_back(std::make_unique<traffic::TcpSource>(
      home.ev.engine(), *home.manager, home.pool, flow_id, cfg));
  if (started_) tcp_sources_.back()->start();
  return {flow_id, tcp_sources_.back().get()};
}

traffic::ChurnSource& Simulation::add_churn_workload(flow::ChainId chain,
                                                     double rate_pps,
                                                     ChurnOptions options) {
  traffic::ChurnSource::Config cfg;
  cfg.chain = chain;
  cfg.rate_pps = rate_pps;
  cfg.concurrent_flows = options.concurrent_flows;
  cfg.size_bytes = options.size_bytes;
  cfg.start_time = clock_.from_seconds(options.start_seconds);
  cfg.stop_time = options.stop_seconds < 0
                      ? Cycles{-1}
                      : clock_.from_seconds(options.stop_seconds);
  cfg.pareto_alpha = options.pareto_alpha;
  cfg.pareto_min_packets = options.pareto_min_packets;
  cfg.seed = options.seed;
  cfg.burst = options.burst ? options.burst : config_.source_burst;
  // Keep generated 5-tuples clear of next_flow_key()'s 10.0.0.0/9 space.
  cfg.src_ip_base = 0x0b000000u + (static_cast<std::uint32_t>(
                                       churn_sources_.size())
                                   << 20);

  Lane& home = home_lane(chain);
  churn_sources_.push_back(std::make_unique<traffic::ChurnSource>(
      home.ev.engine(), *home.manager, home.pool, home.flows, clock_, cfg));
  if (started_) churn_sources_.back()->start();
  return *churn_sources_.back();
}

fault::FaultPlan Simulation::lane_fault_plan(std::size_t lane_id) const {
  fault::FaultPlan lp;
  if (!fault_plan_) return lp;
  // NF faults go to the owning lane; device faults to every lane that has
  // an io engine (each lane owns its own block-device replica, mirroring
  // how every lane owns its own mbuf pool). The unsharded lane takes them
  // even without one: its device is the platform's only disk.
  const bool lane_has_io =
      !sharded() ||
      std::find(io_lane_.begin(), io_lane_.end(),
                static_cast<std::uint32_t>(lane_id)) != io_lane_.end();
  for (const fault::FaultSpec& s : fault_plan_->specs()) {
    const bool mine = s.kind == fault::FaultKind::kDevice
                          ? lane_has_io
                          : lane_of(s.nf) == lane_id;
    if (!mine) continue;
    switch (s.kind) {
      case fault::FaultKind::kCrash:
        lp.add_crash(s.nf, s.at, s.restart_after);
        break;
      case fault::FaultKind::kStall:
        lp.add_stall(s.nf, s.at, s.restart_after);
        break;
      case fault::FaultKind::kDegrade:
        lp.add_degrade(s.nf, s.at, s.factor, s.duration);
        break;
      case fault::FaultKind::kDevice:
        switch (s.device) {
          case fault::DeviceFaultKind::kSlow:
            lp.add_device_slow(s.at, s.factor, s.duration);
            break;
          case fault::DeviceFaultKind::kError:
            lp.add_device_error(s.at, s.duration);
            break;
          case fault::DeviceFaultKind::kTorn:
            lp.add_device_torn(s.at, s.factor, s.duration);
            break;
          case fault::DeviceFaultKind::kWedge:
            lp.add_device_wedge(s.at, s.duration);
            break;
        }
        break;
    }
  }
  return lp;
}

void Simulation::ensure_started() {
  if (started_) return;
  started_ = true;
  for (const auto& lane_ptr : shard_->lanes()) {
    Lane& lane = *lane_ptr;
    lane.manager->start();
    // Flow-expiry sweep (flow-state library, DESIGN.md §13): scheduled only
    // when a timeout is configured, so default simulations dispatch exactly
    // the seed event sequence.
    if (lane.flows.expiry_enabled()) {
      // The home lane owns both the flow entry and its per-flow counters.
      mgr::Manager* manager = lane.manager.get();
      sim::Engine* engine = &lane.ev.engine();
      engine->schedule_periodic(lane.flows.scan_period(), [manager, engine] {
        manager->expire_flows(engine->now());
      });
    }
    // Storage fault domain (DESIGN.md §12): activate its observability only
    // when it is actually in use — device faults in the plan, or an engine
    // with a completion deadline configured — so fault-free reports keep the
    // seed metrics layout byte-for-byte.
    fault::FaultPlan plan = lane_fault_plan(lane.id);
    const bool device_faults = plan.has_device_faults();
    bool io_fault_domain = device_faults;
    for (std::size_t k = 0; k < io_engines_.size(); ++k) {
      if (io_lane_[k] == lane.id && io_engines_[k]->fault_domain_enabled()) {
        io_fault_domain = true;
      }
    }
    if (io_fault_domain) {
      lane_disk(lane).set_observability(&lane.obs);
      for (std::size_t k = 0; k < io_engines_.size(); ++k) {
        if (io_lane_[k] == lane.id) io_engines_[k]->register_fault_metrics();
      }
    }
    if (!plan.empty()) {
      lane.injector = std::make_unique<fault::FaultInjector>(lane.ev.engine(),
                                                             std::move(plan));
      lane.injector->arm(*lane.manager,
                         device_faults ? &lane_disk(lane) : nullptr);
    }
  }
  for (auto& src : udp_sources_) src->start();
  for (auto& src : tcp_sources_) src->start();
  for (auto& src : churn_sources_) src->start();
}

void Simulation::run_for_seconds(double seconds) {
  ensure_started();
  shard_->run_until(shard_->now() + clock_.from_seconds(seconds));
  if (user_trace_) merge_lane_traces();
}

double Simulation::now_seconds() const {
  return clock_.to_seconds(now_cycles());
}

NfMetrics Simulation::nf_metrics(flow::NfId id) const {
  const nf::NfTask& task = *nfs_[id];
  const auto& mc = mgr_of(id).nf_counters(id);
  NfMetrics m;
  m.name = task.name();
  m.arrivals = task.counters().arrivals;
  m.processed = task.counters().processed;
  m.forwarded = task.counters().forwarded;
  m.rx_full_drops = mc.rx_full_drops;
  m.wasted_drops_here = mc.wasted_drops_here;
  m.downstream_drops = mc.downstream_drops;
  m.voluntary_switches = task.stats().voluntary_switches;
  m.involuntary_switches = task.stats().involuntary_switches;
  m.crash_drops = task.counters().crash_drops;
  m.runtime = task.stats().runtime;
  m.avg_sched_latency_ms =
      clock_.to_millis(static_cast<Cycles>(task.stats().avg_sched_latency_cycles()));
  m.rx_queue_len = task.rx_ring().size();
  return m;
}

ChainMetrics Simulation::chain_metrics(flow::ChainId id) const {
  ChainMetrics m;
  // Admission counts on the home lane, egress wherever the last hop ran;
  // the chain total is the sum over replicas.
  for (const auto& lane : shard_->lanes()) {
    const auto& cc = lane->manager->chain_counters(id);
    m.entry_admitted += cc.entry_admitted;
    m.entry_throttle_drops += cc.entry_throttle_drops;
    m.admission_discards += cc.admission_discards;
    m.egress_packets += cc.egress_packets;
    m.egress_bytes += cc.egress_bytes;
  }
  return m;
}

double Simulation::nf_cpu_share(flow::NfId id) const {
  const Cycles now = now_cycles();
  if (now == 0) return 0.0;
  return static_cast<double>(nfs_[id]->stats().runtime) /
         static_cast<double>(now);
}

void Simulation::attach_trace(obs::TraceRecorder& recorder) {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    recorder.set_lane_name(static_cast<std::uint32_t>(i), cores_[i]->name());
  }
  recorder.set_lane_name(obs::kManagerLane, "nf-manager");
  recorder.set_lane_name(obs::kBackpressureLane, "backpressure");
  recorder.set_lane_name(obs::kLifecycleLane, "lifecycle");
  recorder.set_lane_name(obs::kIoLane, "storage-io");
  recorder.set_lane_name(obs::kSloLane, "slo-controller");
  recorder.set_lane_name(obs::kAdmissionLane, "admission");
  if (!sharded()) {
    // The one lane records straight into the user's recorder, in dispatch
    // order. That order is not timestamp-monotone, so the merge sort below
    // would reorder it.
    shard_->lane(0).obs.attach_trace(&recorder);
    return;
  }
  // Each lane records into a private buffer (worker threads must not share
  // a recorder); after every run the buffers are merged into the user's
  // recorder in (timestamp, lane, sequence) order — a total order
  // independent of the worker count.
  user_trace_ = &recorder;
  for (const auto& lane : shard_->lanes()) {
    if (!lane->trace) attach_lane_trace(*lane);
  }
}

void Simulation::attach_lane_trace(Lane& lane) {
  obs::TraceRecorder::Config tc;
  tc.max_events = user_trace_->config().max_events;
  tc.cpu_hz = config_.cpu_hz;
  lane.trace = std::make_unique<obs::TraceRecorder>(tc);
  lane.obs.attach_trace(lane.trace.get());
}

void Simulation::merge_lane_traces() {
  struct Item {
    const obs::TraceEvent* ev;
    std::size_t lane;
    std::size_t idx;
  };
  std::vector<Item> items;
  for (const auto& lane : shard_->lanes()) {
    if (!lane->trace) continue;
    const auto& events = lane->trace->events();
    for (std::size_t i = lane->trace_consumed; i < events.size(); ++i) {
      items.push_back({&events[i], lane->id, i});
    }
    lane->trace_consumed = events.size();
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.ev->ts != b.ev->ts) return a.ev->ts < b.ev->ts;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.idx < b.idx;
  });
  for (const Item& item : items) user_trace_->record(*item.ev);
}

void Simulation::report_json(std::ostream& out) const {
  const double elapsed = now_seconds();
  obs::JsonWriter w(out);
  w.begin_object();

  std::uint64_t wire_ingress = 0;
  for (const auto& lane : shard_->lanes()) {
    wire_ingress += lane->manager->wire_ingress();
  }

  w.key("meta");
  w.begin_object();
  w.field("elapsed_seconds", elapsed);
  w.field("cpu_hz", config_.cpu_hz);
  w.field("now_cycles", static_cast<std::int64_t>(now_cycles()));
  w.field("dispatched_events", shard_->dispatched_events());
  w.field("wire_ingress", wire_ingress);
  w.end_object();

  w.key("nfs");
  w.begin_array();
  for (flow::NfId id = 0; id < nfs_.size(); ++id) {
    const NfMetrics m = nf_metrics(id);
    const mgr::Manager& mgr = mgr_of(id);
    const auto& mc = mgr.nf_counters(id);
    w.begin_object();
    w.field("name", std::string_view(m.name));
    w.field("core", std::string_view(cores_[nf_core_[id]]->name()));
    w.field("offered", mc.offered);
    w.field("arrivals", m.arrivals);
    w.field("processed", m.processed);
    w.field("forwarded", m.forwarded);
    w.field("rx_full_drops", m.rx_full_drops);
    w.field("wasted_drops_here", m.wasted_drops_here);
    w.field("downstream_drops", m.downstream_drops);
    w.field("voluntary_switches", m.voluntary_switches);
    w.field("involuntary_switches", m.involuntary_switches);
    w.field("crash_drops", m.crash_drops);
    w.field("runtime_cycles", static_cast<std::int64_t>(m.runtime));
    w.field("cpu_share", nf_cpu_share(id));
    w.field("avg_sched_latency_ms", m.avg_sched_latency_ms);
    w.field("rx_queue_len", m.rx_queue_len);
    if (mgr.config().lifecycle.enabled) {
      const auto& ls = mgr.nf_lifecycle_stats(id);
      w.key("lifecycle");
      w.begin_object();
      w.field("state",
              std::string_view(fault::to_string(mgr.nf_lifecycle(id))));
      w.field("crashes", ls.crashes);
      w.field("forced_crashes", ls.forced_crashes);
      w.field("restarts", ls.restarts);
      w.field("recoveries", ls.recoveries);
      w.field("downtime_cycles", static_cast<std::int64_t>(ls.downtime_cycles));
      w.end_object();
    }
    // PAM push-aside trajectory (DESIGN.md §17); the block appears only
    // when the controller is armed, keeping legacy reports byte-identical.
    if (mgr.config().push_aside.enabled) {
      w.key("pam");
      w.begin_object();
      w.field("push_scale", mgr.push_scale_of(id));
      w.field("grabs", mgr.push_grabs_of(id));
      w.field("givebacks", mgr.push_givebacks_of(id));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.key("chains");
  w.begin_array();
  for (flow::ChainId id = 0; id < chains_.size(); ++id) {
    const ChainMetrics m = chain_metrics(id);
    const Histogram lat = merged_chain_latency(id);
    w.begin_object();
    w.field("name", std::string_view(chains_.get(id).name));
    w.field("entry_admitted", m.entry_admitted);
    w.field("entry_throttle_drops", m.entry_throttle_drops);
    w.field("egress_packets", m.egress_packets);
    w.field("egress_bytes", m.egress_bytes);
    w.field("throughput_mpps",
            elapsed > 0
                ? static_cast<double>(m.egress_packets) / elapsed / 1e6
                : 0.0);
    w.key("latency_cycles");
    w.begin_object();
    w.field("p50", lat.value_at_quantile(0.5));
    w.field("p99", lat.value_at_quantile(0.99));
    w.field("max", lat.max());
    w.end_object();
    // Exact tail quantiles from the chain's sliding window (DESIGN.md §16).
    // The window fills on the last hop's lane only; concatenating
    // the per-lane windows in lane order therefore reproduces the owner's
    // sample multiset exactly, and quantiles are order-independent, so the
    // merged snapshot equals a single-lane run's.
    {
      const ChainSloReport sr = chain_slo_report(id);
      w.key("tail_latency_cycles");
      w.begin_object();
      w.field("p50", static_cast<std::int64_t>(sr.tail.p50));
      w.field("p95", static_cast<std::int64_t>(sr.tail.p95));
      w.field("p99", static_cast<std::int64_t>(sr.tail.p99));
      w.field("max", static_cast<std::int64_t>(sr.tail.max));
      w.field("window_samples", static_cast<std::int64_t>(sr.tail.samples));
      w.field("total_samples",
              static_cast<std::int64_t>(sr.tail.total_count));
      w.end_object();
      if (sr.target > 0) {
        w.key("slo");
        w.begin_object();
        w.field("target_cycles", static_cast<std::int64_t>(sr.target));
        w.field("p99_over_target", static_cast<double>(sr.tail.p99) /
                                       static_cast<double>(sr.target));
        w.field("violation_seconds", clock_.to_seconds(sr.violation_cycles));
        w.field("boost", sr.boost);
        w.end_object();
      }
    }
    // Overload control (DESIGN.md §17): emitted only for classed chains,
    // so legacy reports stay byte-identical.
    {
      const ChainAdmissionReport ar = chain_admission_report(id);
      if (ar.classed) {
        w.key("admission");
        w.begin_object();
        w.field("priority", ar.priority);
        w.field("utility", ar.utility);
        w.field("engaged", ar.engaged);
        w.field("engagements", ar.engagements);
        w.field("releases", ar.releases);
        w.field("admission_discards", m.admission_discards);
        w.field("trickle_admits", ar.trickle_admits);
        w.end_object();
      }
    }
    w.end_object();
  }
  w.end_array();

  w.key("cores");
  w.begin_array();
  for (const auto& core : cores_) {
    w.begin_object();
    w.field("name", std::string_view(core->name()));
    w.field("numa_node", static_cast<std::int64_t>(core->numa_node()));
    w.field("busy_cycles", static_cast<std::int64_t>(core->busy_cycles()));
    w.field("switch_overhead_cycles",
            static_cast<std::int64_t>(core->switch_overhead_cycles()));
    const Cycles now = now_cycles();
    w.field("utilization",
            now > 0 ? static_cast<double>(core->busy_cycles()) /
                          static_cast<double>(now)
                    : 0.0);
    w.end_object();
  }
  w.end_array();

  // Full registry dump: every instrument any component registered, merged
  // over the lane registries (counters sum, histograms merge) into one key
  // space; over a single lane the merge prints exactly what write_json does.
  {
    std::ostringstream metrics;
    std::vector<const obs::MetricsRegistry*> parts;
    for (const auto& lane : shard_->lanes()) {
      parts.push_back(&lane->obs.metrics());
    }
    obs::MetricsRegistry::write_json_merged(parts, metrics);
    w.key("metrics");
    w.raw(metrics.str());
  }

  w.end_object();
  out << '\n';
}

std::string Simulation::report_json() const {
  std::ostringstream out;
  report_json(out);
  return out.str();
}

void Simulation::print_report(std::ostream& out) const {
  const double elapsed = now_seconds();
  out << "=== NFVnice simulation report (t=" << std::fixed
      << std::setprecision(3) << elapsed << "s) ===\n";
  out << std::left << std::setw(14) << "NF" << std::right << std::setw(12)
      << "arrivals" << std::setw(12) << "processed" << std::setw(12)
      << "drops@rx" << std::setw(10) << "cpu%" << std::setw(10) << "cswch"
      << std::setw(10) << "nvcswch" << '\n';
  for (flow::NfId id = 0; id < nfs_.size(); ++id) {
    const NfMetrics m = nf_metrics(id);
    out << std::left << std::setw(14) << m.name << std::right << std::setw(12)
        << m.arrivals << std::setw(12) << m.processed << std::setw(12)
        << m.rx_full_drops << std::setw(9) << std::setprecision(1)
        << nf_cpu_share(id) * 100.0 << "%" << std::setw(10)
        << m.voluntary_switches << std::setw(10) << m.involuntary_switches
        << '\n';
  }
  for (flow::ChainId id = 0; id < chains_.size(); ++id) {
    const ChainMetrics m = chain_metrics(id);
    out << "chain '" << chains_.get(id).name << "': egress "
        << m.egress_packets << " pkts ("
        << std::setprecision(3)
        << (elapsed > 0 ? static_cast<double>(m.egress_packets) / elapsed / 1e6
                        : 0.0)
        << " Mpps), entry drops " << m.entry_throttle_drops << '\n';
  }
}

}  // namespace nfv::core
