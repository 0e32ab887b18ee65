// Example: protecting responsive flows from unresponsive ones (Fig. 13).
//
// A TCP flow shares two NFs with ten UDP flows whose own bottleneck lies
// further down their chain. Watch the TCP goodput timeline as the UDP
// flood switches on and off, with NFVnice's per-chain backpressure and ECN
// keeping the TCP flow alive.
//
//   ./build/examples/tcp_udp_isolation [--stock]

#include <cstdio>
#include <cstring>

#include "core/simulation.hpp"

int main(int argc, char** argv) {
  const bool stock = argc > 1 && std::strcmp(argv[1], "--stock") == 0;

  nfvnice::PlatformConfig cfg;
  cfg.set_nfvnice(!stock);
  nfvnice::Simulation sim(cfg);

  const auto shared = sim.add_core(nfvnice::SchedPolicy::kCfsBatch);
  const auto extra = sim.add_core(nfvnice::SchedPolicy::kCfsBatch);
  const auto nf1 = sim.add_nf("NF1-low", shared, nfv::nf::CostModel::fixed(250));
  const auto nf2 = sim.add_nf("NF2-med", shared, nfv::nf::CostModel::fixed(500));
  const auto nf3 = sim.add_nf("NF3-high", extra, nfv::nf::CostModel::fixed(30000));

  const auto tcp_chain = sim.add_chain("tcp-path", {nf1, nf2});
  const auto udp_chain = sim.add_chain("udp-path", {nf1, nf2, nf3});

  auto [tcp_flow, tcp_src] = sim.add_tcp_flow(tcp_chain);
  for (int i = 0; i < 10; ++i) {
    nfvnice::UdpOptions opts;
    opts.size_bytes = 512;
    opts.start_seconds = 0.5;  // UDP flood switches on here...
    opts.stop_seconds = 1.5;   // ...and off here.
    sim.add_udp_flow(udp_chain, 5e5, opts);
  }

  std::printf("mode: %s\n", stock ? "stock scheduler" : "NFVnice");
  std::printf("%6s %12s %10s\n", "t(s)", "TCP Mbps", "cwnd");
  std::uint64_t prev_bytes = 0;
  for (int i = 0; i < 20; ++i) {
    sim.run_for_seconds(0.1);
    // Per-flow counters live with the chain's first hop.
    const auto& fc = sim.mgr_of(nf1).flow_counters(tcp_flow);
    const double mbps =
        static_cast<double>(fc.egress_bytes - prev_bytes) * 8 / 0.1 / 1e6;
    prev_bytes = fc.egress_bytes;
    std::printf("%6.1f %12.1f %10u\n", sim.now_seconds(), mbps,
                tcp_src->cwnd());
  }
  return 0;
}
