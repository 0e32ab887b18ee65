#include "config/loader.hpp"

#include <gtest/gtest.h>

namespace nfv::config {
namespace {

using core::Simulation;

TEST(ConfigLoader, MinimalTopology) {
  Simulation sim;
  const auto topo = load_string(R"(
    # a one-NF deployment
    core batch
    nf fwd core=0 cost=120
    chain c fwd
    udp c rate=1e5
  )",
                                sim);
  EXPECT_EQ(topo.cores.size(), 1u);
  EXPECT_EQ(topo.nfs.size(), 1u);
  EXPECT_EQ(topo.chains.size(), 1u);
  EXPECT_EQ(topo.flows.size(), 1u);
  sim.run_for_seconds(0.05);
  EXPECT_GT(sim.chain_metrics(topo.chains.at("c")).egress_packets, 4000u);
}

TEST(ConfigLoader, FullFig7Topology) {
  Simulation sim;
  const auto topo = load_string(R"(
    mode nfvnice
    core batch
    nf low core=0 cost=120
    nf med core=0 cost=270
    nf high core=0 cost=550
    chain lmh low med high
    udp lmh rate=6e6 size=64
  )",
                                sim);
  sim.run_for_seconds(0.1);
  const auto cm = sim.chain_metrics(topo.chains.at("lmh"));
  EXPECT_GT(cm.egress_packets, 150'000u);     // ~2.7 Mpps under NFVnice
  EXPECT_GT(cm.entry_throttle_drops, 10'000u);  // backpressure active
}

TEST(ConfigLoader, ModeDirectiveTogglesFeatures) {
  Simulation sim;
  load_string("mode default\n", sim);
  EXPECT_FALSE(sim.manager().config().enable_cgroups);
  EXPECT_FALSE(sim.manager().config().enable_backpressure);
  load_string("mode cgroup\n", sim);
  EXPECT_TRUE(sim.manager().config().enable_cgroups);
  EXPECT_FALSE(sim.manager().config().enable_backpressure);
  load_string("mode backpressure\n", sim);
  EXPECT_TRUE(sim.manager().config().enable_backpressure);
  load_string("mode nfvnice\n", sim);
  EXPECT_TRUE(sim.manager().config().enable_ecn);
}

// `mode` precedes every `core`, so under sharding it runs before any lane
// exists; the features must still reach every lane built afterwards.
TEST(ConfigLoader, ModeDirectiveReachesEveryShardedLane) {
  core::PlatformConfig cfg;
  cfg.sim_shards = 2;
  Simulation sim(cfg);
  const auto topo = load_string(R"(
    mode default
    core batch
    core batch
    nf a core=0 cost=100
    nf b core=1 cost=100
  )",
                                sim);
  for (const char* nf : {"a", "b"}) {
    const auto& mgr_cfg = sim.mgr_of(topo.nfs.at(nf)).config();
    EXPECT_FALSE(mgr_cfg.enable_cgroups) << nf;
    EXPECT_FALSE(mgr_cfg.enable_backpressure) << nf;
    EXPECT_FALSE(mgr_cfg.enable_ecn) << nf;
  }
}

TEST(ConfigLoader, RrCoreWithQuantum) {
  Simulation sim;
  const auto topo = load_string(R"(
    core rr 1
    nf a core=0 cost=100
    chain c a
  )",
                                sim);
  EXPECT_EQ(topo.cores.size(), 1u);
}

TEST(ConfigLoader, NfOptionsParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf vip core=0 cost=500 priority=4.0 batch=16
  )",
                                sim);
  EXPECT_DOUBLE_EQ(sim.nf(topo.nfs.at("vip")).priority(), 4.0);
  EXPECT_EQ(sim.nf(topo.nfs.at("vip")).config().batch_size, 16u);
}

TEST(ConfigLoader, TcpFlowOptions) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf a core=0 cost=100
    chain c a
    tcp c size=1500 rtt_us=500 start=0.01
  )",
                                sim);
  EXPECT_EQ(topo.flows.count("tcp0"), 1u);
  sim.run_for_seconds(0.05);
  EXPECT_GT(sim.manager().flow_counters(topo.flows.at("tcp0")).egress_packets,
            100u);
}

TEST(ConfigLoader, CommentsAndBlankLinesIgnored) {
  Simulation sim;
  EXPECT_NO_THROW(load_string("\n  # just a comment\n\ncore batch # tail\n",
                              sim));
}

TEST(ConfigLoader, ErrorsCarryLineNumbers) {
  Simulation sim;
  try {
    load_string("core batch\nbogus directive\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(ConfigLoader, UnknownNfInChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nchain c ghost\n", sim), ConfigError);
}

TEST(ConfigLoader, UnknownCoreFails) {
  Simulation sim;
  EXPECT_THROW(load_string("nf a core=9 cost=1\n", sim), ConfigError);
}

TEST(ConfigLoader, DuplicateNfFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nnf a core=0 cost=2\n", sim),
      ConfigError);
}

TEST(ConfigLoader, BadNumberFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=abc\n", sim),
               ConfigError);
}

TEST(ConfigLoader, MissingCoreOptionFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a cost=100\n", sim), ConfigError);
}

TEST(ConfigLoader, UnknownFlowChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("udp ghost rate=1\n", sim), ConfigError);
}

TEST(ConfigLoader, FaultDirectivesParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    mode nfvnice
    core batch
    nf a core=0 cost=120
    nf b core=0 cost=270
    chain ab a b
    udp ab rate=2e6
    fault crash b at=0.02 restart_after=0.01
    fault slow a at=0.05 factor=2 for=0.02
    on_dead ab backpressure
  )",
                                sim);
  // Any fault directive arms the lifecycle subsystem.
  EXPECT_TRUE(sim.manager().config().lifecycle.enabled);
  sim.run_for_seconds(0.1);
  const auto& ls = sim.nf_lifecycle_stats(topo.nfs.at("b"));
  EXPECT_EQ(ls.crashes, 1u);
  EXPECT_EQ(ls.recoveries, 1u);
  EXPECT_EQ(sim.nf_lifecycle(topo.nfs.at("b")), fault::NfLifecycle::kRunning);
}

TEST(ConfigLoader, FaultStallAndBypassParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf a core=0 cost=120
    nf b core=0 cost=150
    chain ab a b
    udp ab rate=1e6
    fault stall b at=0.02 restart_after=0.01
    on_dead ab bypass
  )",
                                sim);
  sim.run_for_seconds(0.1);
  EXPECT_EQ(sim.nf_lifecycle_stats(topo.nfs.at("b")).forced_crashes, 1u);
  EXPECT_GT(sim.manager().chain_counters(topo.chains.at("ab")).bypassed_hops,
            0u);
}

TEST(ConfigLoader, NoFaultDirectiveLeavesLifecycleDisabled) {
  Simulation sim;
  load_string("core batch\nnf a core=0 cost=100\nchain c a\n", sim);
  EXPECT_FALSE(sim.manager().config().lifecycle.enabled);
}

TEST(ConfigLoader, FaultUnknownNfFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nfault crash ghost at=0.1\n", sim),
               ConfigError);
}

TEST(ConfigLoader, FaultMissingAtFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nfault crash a\n", sim),
      ConfigError);
}

TEST(ConfigLoader, FaultSlowWithoutFactorFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nfault slow a at=0.1\n", sim),
      ConfigError);
}

TEST(ConfigLoader, FaultUnknownKindFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nfault melt a at=0.1\n", sim),
      ConfigError);
}

TEST(ConfigLoader, FaultUnknownOptionFails) {
  Simulation sim;
  EXPECT_THROW(load_string(
                   "core batch\nnf a core=0 cost=1\nfault crash a at=0.1 x=2\n",
                   sim),
               ConfigError);
}

// Overlap validation happens in FaultPlan; the loader must rewrap the
// FaultError as a ConfigError that carries the offending line.
TEST(ConfigLoader, OverlappingFaultsCarryLineNumbers) {
  Simulation sim;
  try {
    load_string(
        "core batch\n"
        "nf a core=0 cost=1\n"
        "fault crash a at=0.1 restart_after=0.1\n"
        "fault stall a at=0.15\n",
        sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
  }
}

TEST(ConfigLoader, OnDeadUnknownChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\non_dead ghost bypass\n", sim),
               ConfigError);
}

TEST(ConfigLoader, OnDeadUnknownPolicyFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=1\nchain c a\n"
                           "on_dead c explode\n",
                           sim),
               ConfigError);
}

// -- storage fault domain directives (DESIGN.md §12) -------------------------

TEST(ConfigLoader, IoDirectivesParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf a core=0 cost=120
    chain c a
    udp c rate=1e5
    io a mode=async buffer=4096 flush_us=500
    io_timeout a us=100
    io_retry a max=3 backoff_us=10 multiplier=1.5 jitter=0.2
    on_io_fail a shed
  )",
                                sim);
  ASSERT_EQ(topo.ios.count("a"), 1u);
  const auto& cfg = topo.ios.at("a")->config();
  EXPECT_EQ(cfg.mode, io::AsyncIoEngine::Mode::kDoubleBuffered);
  EXPECT_EQ(cfg.buffer_bytes, 4096u);
  EXPECT_EQ(cfg.flush_interval, sim.clock().from_micros(500));
  EXPECT_EQ(cfg.io_timeout, sim.clock().from_micros(100));
  EXPECT_EQ(cfg.max_attempts, 3u);
  EXPECT_EQ(cfg.retry_backoff, sim.clock().from_micros(10));
  EXPECT_DOUBLE_EQ(cfg.backoff_multiplier, 1.5);
  EXPECT_DOUBLE_EQ(cfg.jitter_fraction, 0.2);
  EXPECT_EQ(cfg.on_fail, io::AsyncIoEngine::OnIoFail::kShed);
  EXPECT_TRUE(topo.ios.at("a")->fault_domain_enabled());
}

TEST(ConfigLoader, DeviceFaultDirectiveArmsTheDevice) {
  Simulation sim;
  load_string(R"(
    core batch
    nf a core=0 cost=120
    chain c a
    udp c rate=1e5
    io a mode=sync
    device_fault wedge at=0.01
  )",
              sim);
  sim.run_for_seconds(0.02);
  EXPECT_TRUE(sim.disk().wedged());  // the plan reached the device
}

TEST(ConfigLoader, IoTimeoutWithoutIoLineFails) {
  Simulation sim;
  try {
    load_string("core batch\nnf a core=0 cost=1\nio_timeout a us=100\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("no io engine"), std::string::npos);
  }
}

TEST(ConfigLoader, DuplicateIoLineFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=1\n"
                           "io a mode=async\nio a mode=sync\n",
                           sim),
               ConfigError);
}

TEST(ConfigLoader, IoRetryValidatesRanges) {
  Simulation sim;
  const std::string prelude =
      "core batch\nnf a core=0 cost=1\nio a mode=async\n";
  EXPECT_THROW(load_string(prelude + "io_retry a max=0 backoff_us=10\n", sim),
               ConfigError);
  EXPECT_THROW(load_string(prelude + "io_retry a max=2\n", sim), ConfigError);
  EXPECT_THROW(
      load_string(prelude + "io_retry a max=2 backoff_us=10 jitter=1.0\n", sim),
      ConfigError);
}

TEST(ConfigLoader, OnIoFailUnknownPolicyFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=1\n"
                           "io a mode=async\non_io_fail a explode\n",
                           sim),
               ConfigError);
}

TEST(ConfigLoader, DeviceFaultValidation) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\ndevice_fault slow at=0.1\n", sim),
               ConfigError);  // slow needs factor=
  EXPECT_THROW(load_string("core batch\ndevice_fault torn at=0.1\n", sim),
               ConfigError);  // torn needs fraction=
  EXPECT_THROW(load_string("core batch\ndevice_fault melt at=0.1\n", sim),
               ConfigError);  // unknown kind
  EXPECT_THROW(load_string("core batch\ndevice_fault wedge for=0.1\n", sim),
               ConfigError);  // missing at=
}

// Device-window overlap validation happens in FaultPlan; the loader must
// rewrap the FaultError with the offending line.
TEST(ConfigLoader, OverlappingDeviceFaultsCarryLineNumbers) {
  Simulation sim;
  try {
    load_string(
        "core batch\n"
        "device_fault wedge at=0.1 for=0.1\n"
        "device_fault error at=0.15 for=0.1\n",
        sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
  }
}

// The engine has one ready queue and no directive selects it: `engine`
// is an unknown directive like any other misspelt verb.
TEST(ConfigLoader, EngineDirectiveIsUnknown) {
  Simulation sim;
  try {
    load_string("core batch\nengine heap\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("unknown directive"),
              std::string::npos);
  }
}

// -- slo directive (DESIGN.md §16) ------------------------------------------

TEST(ConfigLoader, SloDirectiveSetsChainTarget) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf fwd core=0 cost=120
    chain c fwd
    slo c target_us=150
    udp c rate=1e5
  )",
                                sim);
  sim.run_for_seconds(0.05);
  const auto report = sim.chain_slo_report(topo.chains.at("c"));
  EXPECT_EQ(report.target, sim.clock().from_micros(150.0));
  EXPECT_GT(report.tail.total_count, 0u);
}

TEST(ConfigLoader, SloZeroTargetClears) {
  Simulation sim;
  const auto topo = load_string(
      "core batch\nnf fwd core=0 cost=120\nchain c fwd\n"
      "slo c target_us=150\nslo c target_us=0\n",
      sim);
  EXPECT_EQ(sim.chain_slo_report(topo.chains.at("c")).target, 0u);
}

TEST(ConfigLoader, SloUnknownChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nslo ghost target_us=10\n", sim),
               ConfigError);
}

TEST(ConfigLoader, SloBadOptionFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf f core=0 cost=10\nchain c f\nslo c p99=5\n",
                  sim),
      ConfigError);
  Simulation sim2;
  EXPECT_THROW(
      load_string(
          "core batch\nnf f core=0 cost=10\nchain c f\nslo c target_us=-2\n",
          sim2),
      ConfigError);
  Simulation sim3;
  EXPECT_THROW(
      load_string(
          "core batch\nnf f core=0 cost=10\nchain c f\nslo c target_us=abc\n",
          sim3),
      ConfigError);
}

// -- class directive (DESIGN.md §17) ----------------------------------------

TEST(ConfigLoader, ClassDirectiveRegistersFlowClass) {
  Simulation sim;
  const auto topo = load_string(R"(
    mode nfvnice
    core batch
    nf fwd core=0 cost=120
    chain gold fwd
    chain bulk fwd
    class gold priority=4 utility=10
    class bulk utility=2
  )",
                                sim);
  const auto gr = sim.chain_admission_report(topo.chains.at("gold"));
  ASSERT_TRUE(gr.classed);
  EXPECT_DOUBLE_EQ(gr.priority, 4.0);
  EXPECT_DOUBLE_EQ(gr.utility, 10.0);
  const auto br = sim.chain_admission_report(topo.chains.at("bulk"));
  ASSERT_TRUE(br.classed);
  EXPECT_DOUBLE_EQ(br.priority, 1.0);  // omitted options keep defaults
  EXPECT_DOUBLE_EQ(br.utility, 2.0);
}

TEST(ConfigLoader, ClassUnknownChainFails) {
  Simulation sim;
  try {
    load_string("core batch\nclass ghost priority=1\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(ConfigLoader, DuplicateClassCarriesLineNumber) {
  Simulation sim;
  try {
    load_string(
        "core batch\n"
        "nf f core=0 cost=10\n"
        "chain c f\n"
        "class c utility=5\n"
        "class c utility=7\n",
        sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ConfigLoader, ClassValidatesRanges) {
  const std::string prelude = "core batch\nnf f core=0 cost=10\nchain c f\n";
  Simulation sim;
  EXPECT_THROW(load_string(prelude + "class c priority=0\n", sim),
               ConfigError);
  Simulation sim2;
  EXPECT_THROW(load_string(prelude + "class c utility=-3\n", sim2),
               ConfigError);
  Simulation sim3;
  EXPECT_THROW(load_string(prelude + "class c priority=1001\n", sim3),
               ConfigError);
  Simulation sim4;
  EXPECT_THROW(load_string(prelude + "class c utility=nan\n", sim4),
               ConfigError);
}

TEST(ConfigLoader, ClassBadOptionFails) {
  const std::string prelude = "core batch\nnf f core=0 cost=10\nchain c f\n";
  Simulation sim;
  EXPECT_THROW(load_string(prelude + "class c weight=5\n", sim), ConfigError);
  Simulation sim2;
  EXPECT_THROW(load_string(prelude + "class c priority\n", sim2), ConfigError);
  Simulation sim3;
  EXPECT_THROW(load_string(prelude + "class c utility=abc\n", sim3),
               ConfigError);
  Simulation sim4;
  EXPECT_THROW(load_string(prelude + "class\n", sim4), ConfigError);
}

}  // namespace
}  // namespace nfv::config
