// Byte-identity guard for unsharded runs: pins FNV-1a digests of
// report_json() and the Chrome trace for four topologies that between them
// exercise every part of the platform the report and trace cover — the
// Fig. 7 chain, a two-core admission + push-aside + SLO mix (whose trace is
// not timestamp-monotone), flow churn with idle expiry, and a crash plus
// device-fault plan over async I/O. Each run starts with a zero-length call
// and advances in 1 ms calls, so the run boundary is pinned too. Any change
// to event order, metric registration order or report layout moves a
// digest; a deliberate one must re-pin it and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"

namespace nfv::core {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Digests {
  std::uint64_t report = 0;
  std::uint64_t trace = 0;
};

/// Run `sim` (trace attached) for `ms` 1 ms calls and digest its outputs.
Digests run_and_digest(Simulation& sim, obs::TraceRecorder& recorder,
                       int ms) {
  sim.run_for_seconds(0.0);
  for (int i = 0; i < ms; ++i) sim.run_for_seconds(0.001);
  std::ostringstream trace;
  recorder.write_chrome_json(trace);
  return {fnv1a(sim.report_json()), fnv1a(trace.str())};
}

UdpOptions seeded(std::uint64_t seed) {
  UdpOptions opts;
  opts.seed = seed;
  return opts;
}

TEST(UnshardedByteIdentity, Fig07Chain) {
  Simulation sim;
  const auto core = sim.add_core(SchedPolicy::kCfsBatch);
  const auto low = sim.add_nf("low", core, nf::CostModel::fixed(120));
  const auto med = sim.add_nf("med", core, nf::CostModel::fixed(270));
  const auto high = sim.add_nf("high", core, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("chain", {low, med, high});
  sim.add_udp_flow(chain, 6e6, seeded(7));
  obs::TraceRecorder recorder;
  sim.attach_trace(recorder);
  const Digests d = run_and_digest(sim, recorder, 20);
  EXPECT_EQ(d.report, 0xc54b63eb8cfaf875ULL);
  EXPECT_EQ(d.trace, 0x09b4575509557f4cULL);
}

TEST(UnshardedByteIdentity, AdmissionPushAsideSlo) {
  PlatformConfig cfg;
  cfg.manager.push_aside.enabled = true;
  Simulation sim(cfg);
  const auto core0 = sim.add_core(SchedPolicy::kCfsNormal);
  const auto core1 = sim.add_core(SchedPolicy::kCfsNormal);
  NfOptions gold_opts;
  gold_opts.priority = 2.0;
  gold_opts.rx_capacity = 256;
  const auto gate = sim.add_nf("gate", core0, nf::CostModel::fixed(600));
  const auto gold_nf =
      sim.add_nf("gold_nf", core1, nf::CostModel::fixed(1200), gold_opts);
  const auto bulk_nf = sim.add_nf("bulk_nf", core1, nf::CostModel::fixed(50));
  const auto hog_nf = sim.add_nf("hog", core1, nf::CostModel::fixed(600));
  const auto gold = sim.add_chain("gold", {gate, gold_nf});
  const auto bulk = sim.add_chain("bulk", {gate, bulk_nf});
  const auto hog = sim.add_chain("hog", {hog_nf});
  sim.set_chain_slo(gold, 300.0);
  sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
  sim.set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
  sim.add_udp_flow(gold, 0.5e6, seeded(11));
  sim.add_udp_flow(bulk, 8e6, seeded(12));
  sim.add_udp_flow(hog, 5e6, seeded(13));
  obs::TraceRecorder recorder;
  sim.attach_trace(recorder);
  const Digests d = run_and_digest(sim, recorder, 10);
  EXPECT_EQ(d.report, 0x7d444186eb026816ULL);
  EXPECT_EQ(d.trace, 0xd143b9dd67d82959ULL);
}

TEST(UnshardedByteIdentity, ChurnWithIdleExpiry) {
  PlatformConfig cfg;
  cfg.flow_table.idle_timeout =
      static_cast<Cycles>(0.01 * cfg.cpu_hz);  // 10 ms idle -> expire
  Simulation sim(cfg);
  const auto core = sim.add_core(SchedPolicy::kCfsBatch);
  const auto cls = sim.add_nf("classify", core, nf::CostModel::fixed(150));
  const auto mon = sim.add_nf("monitor", core, nf::CostModel::fixed(120));
  const auto chain = sim.add_chain("churn", {cls, mon});
  ChurnOptions opts;
  opts.concurrent_flows = 4'000;
  opts.stop_seconds = 0.02;
  opts.pareto_alpha = 1.5;
  opts.seed = 0xc4a2;
  sim.add_churn_workload(chain, 1e6, opts);
  obs::TraceRecorder recorder;
  sim.attach_trace(recorder);
  const Digests d = run_and_digest(sim, recorder, 40);
  EXPECT_GT(sim.flow_table().expirations(), 0u) << "expiry never ran";
  EXPECT_EQ(d.report, 0x85f83568bf1883a7ULL);
  EXPECT_EQ(d.trace, 0x267c730f7966ef78ULL);
}

TEST(UnshardedByteIdentity, CrashAndDeviceFaultsOverAsyncIo) {
  Simulation sim;
  const auto core = sim.add_core(SchedPolicy::kCfsBatch);
  const auto logger = sim.add_nf("logger", core, nf::CostModel::fixed(300));
  const auto fwd = sim.add_nf("fwd", core, nf::CostModel::fixed(150));
  const auto chain = sim.add_chain("logged", {logger, fwd});
  io::AsyncIoEngine::Config io_cfg;
  io_cfg.mode = io::AsyncIoEngine::Mode::kDoubleBuffered;
  io_cfg.buffer_bytes = 64 * 1024;
  io::AsyncIoEngine* io = &sim.attach_io(logger, io_cfg);
  sim.nf(logger).set_handler([io](pktio::Mbuf& pkt) {
    io->write(pkt.size_bytes);
    return nf::NfAction::kForward;
  });
  const CpuClock& clock = sim.clock();
  fault::FaultPlan plan;
  plan.add_crash(fwd, clock.from_seconds(0.005), clock.from_seconds(0.004));
  plan.add_device_slow(clock.from_seconds(0.012), 8.0,
                       clock.from_seconds(0.006));
  plan.add_device_error(clock.from_seconds(0.022), clock.from_seconds(0.004));
  sim.set_fault_plan(std::move(plan));
  sim.add_udp_flow(chain, 2e6, seeded(5));
  obs::TraceRecorder recorder;
  sim.attach_trace(recorder);
  const Digests d = run_and_digest(sim, recorder, 30);
  EXPECT_EQ(sim.nf_lifecycle_stats(fwd).crashes, 1u);
  EXPECT_EQ(d.report, 0x639414a55c001555ULL);
  EXPECT_EQ(d.trace, 0x9553dbe3c4052709ULL);
}

}  // namespace
}  // namespace nfv::core
