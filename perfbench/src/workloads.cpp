#include "workloads.hpp"

#include <algorithm>
#include <thread>

namespace perfbench {

namespace {

using nfv::core::PlatformConfig;
using nfv::core::SchedPolicy;
using nfv::core::Simulation;
using nfv::nf::CostModel;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

nfv::core::UdpOptions udp(std::uint64_t seed, std::uint64_t index) {
  nfv::core::UdpOptions opts;
  opts.seed = source_seed(seed, index);
  return opts;
}

// Fig. 7: three NFs of rising cost on one CFS-BATCH core, one 6 Mpps flow.
void fig07_chain(Simulation& sim, std::uint64_t seed, Instance& inst) {
  const auto core = sim.add_core(SchedPolicy::kCfsBatch);
  const auto low = sim.add_nf("low", core, CostModel::fixed(120));
  const auto med = sim.add_nf("med", core, CostModel::fixed(270));
  const auto high = sim.add_nf("high", core, CostModel::fixed(550));
  const auto chain = sim.add_chain("chain", {low, med, high});
  sim.add_udp_flow(chain, 6e6, udp(seed, 0));
  inst.max_nfs_per_core = 3;
  inst.cfs_batch = true;
}

// micro_shard's topology: a 4-hop ring chain crossing every core plus two
// 2-hop chains, all handing packets across lanes.
void xlane_4core(Simulation& sim, std::uint64_t seed, Instance& inst) {
  std::vector<std::size_t> cores;
  std::vector<nfv::flow::NfId> front, back;
  for (int i = 0; i < 4; ++i) {
    cores.push_back(sim.add_core(SchedPolicy::kCfsBatch));
    front.push_back(sim.add_nf("f" + std::to_string(i), cores[i],
                               CostModel::fixed(220)));
    back.push_back(sim.add_nf("b" + std::to_string(i), cores[i],
                              CostModel::fixed(340)));
  }
  const auto ring =
      sim.add_chain("ring", {front[0], front[1], front[2], front[3]});
  const auto pair_a = sim.add_chain("pair_a", {back[1], back[2]});
  const auto pair_b = sim.add_chain("pair_b", {back[3], back[0]});
  sim.add_udp_flow(ring, 2.5e6, udp(seed, 0));
  sim.add_udp_flow(pair_a, 2.0e6, udp(seed, 1));
  sim.add_udp_flow(pair_b, 2.0e6, udp(seed, 2));
  sim.add_tcp_flow(ring);
  inst.max_nfs_per_core = 2;
  inst.cfs_batch = true;
}

// fig_overload's Combined arm: a shared 600-cycle gate heads a gold chain
// (SLO, high utility) and a bulk overloader; a hog saturates core 1.
void overload_mix(Simulation& sim, std::uint64_t seed, Instance& inst) {
  const auto core0 = sim.add_core(SchedPolicy::kCfsNormal);
  const auto core1 = sim.add_core(SchedPolicy::kCfsNormal);
  nfv::core::NfOptions gold_opts;
  gold_opts.priority = 2.0;
  gold_opts.rx_capacity = 256;
  const auto gate = sim.add_nf("gate", core0, CostModel::fixed(600));
  const auto gold_nf =
      sim.add_nf("gold_nf", core1, CostModel::fixed(1200), gold_opts);
  const auto bulk_nf = sim.add_nf("bulk_nf", core1, CostModel::fixed(50));
  const auto hog_nf = sim.add_nf("hog", core1, CostModel::fixed(600));
  const auto gold = sim.add_chain("gold", {gate, gold_nf});
  const auto bulk = sim.add_chain("bulk", {gate, bulk_nf});
  const auto hog = sim.add_chain("hog", {hog_nf});
  sim.set_chain_slo(gold, 300.0);
  sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
  sim.set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
  sim.add_udp_flow(gold, 0.5e6, udp(seed, 0));
  sim.add_udp_flow(bulk, 8e6, udp(seed, 1));
  sim.add_udp_flow(hog, 5e6, udp(seed, 2));
  inst.max_nfs_per_core = 3;
  inst.cfs_batch = false;
}

// A stateful FlowMonitor behind a classifier, fed by 100k concurrent
// Pareto-length flows; idle expiry keeps ~200k live flow-table entries.
void flow_churn(Simulation& sim, std::uint64_t seed, Instance& inst) {
  const auto core = sim.add_core(SchedPolicy::kCfsBatch);
  const auto cls = sim.add_nf("classify", core, CostModel::fixed(150));
  const auto mon = sim.add_nf("monitor", core, CostModel::fixed(120));
  const auto chain = sim.add_chain("churn", {cls, mon});
  inst.monitor = std::make_unique<nfv::nfs::FlowMonitor>(1u << 18);
  inst.monitor->install(sim.nf(mon), nfv::nfs::FlowMonitor::PathCosts{});
  nfv::core::ChurnOptions opts;
  opts.concurrent_flows = 100'000;
  opts.seed = source_seed(seed, 0);
  sim.add_churn_workload(chain, 2e6, opts);
  inst.max_nfs_per_core = 2;
  inst.cfs_batch = true;
}

void no_config(PlatformConfig&) {}

void overload_config(PlatformConfig& cfg) {
  cfg.manager.push_aside.enabled = true;
}

void churn_config(PlatformConfig& cfg) {
  cfg.flow_table.idle_timeout =
      static_cast<nfv::Cycles>(0.2 * cfg.cpu_hz);  // 200 ms idle
}

// Simulated seconds per timed repetition: each outlasts its workload's
// start-up transient (xlane_4core's first ~150 ms run cheaper per simulated
// ms; flow_churn's table fills over one 200 ms idle timeout) yet is short
// enough, 0.15-1 wall seconds on a 4-core x86 host, that a run repeats it
// tens of times.
constexpr Workload kWorkloads[] = {
    {"fig07_chain", 0.25, false, no_config, fig07_chain},
    {"xlane_4core", 0.25, true, no_config, xlane_4core},
    {"overload_mix", 0.2, false, overload_config, overload_mix},
    {"flow_churn", 0.5, false, churn_config, flow_churn},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint32_t default_shards() {
  const unsigned host = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, host);
}

std::uint64_t source_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(splitmix64(seed) + index);
}

void construct(const Workload& w, Instance& inst, int shards) {
  PlatformConfig cfg;
  cfg.set_nfvnice(true);
  cfg.engine_backend = nfv::sim::EngineBackend::kHeap;
  if (shards < 0) shards = w.sharded ? static_cast<int>(default_shards()) : 0;
  cfg.sim_shards = static_cast<std::uint32_t>(shards);
  w.configure(cfg);
  inst.sim = std::make_unique<Simulation>(cfg);
}

void build_topology(const Workload& w, std::uint64_t seed, Instance& inst) {
  Simulation& sim = *inst.sim;
  w.build(sim, seed, inst);
  if (sim.sharded()) {
    inst.lanes = sim.core_count();
    inst.workers = std::min<std::size_t>(sim.config().sim_shards,
                                         sim.core_count());
  }
}

}  // namespace perfbench
