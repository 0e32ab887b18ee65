// Figure 13 (§4.3.4): performance isolation for responsive flows.
//
// One TCP flow traverses NF1(low)->NF2(med) on a shared core. Ten UDP
// flows share NF1/NF2 but continue to NF3 (high cost, own core) — NF3 is
// the UDP bottleneck, capping aggregate UDP goodput. UDP starts partway
// through the run and stops later (the paper: 15 s-40 s of a 55 s run; we
// compress the timeline). Expected shape: without NFVnice the TCP flow
// craters by ~2 orders of magnitude while UDP interferes; with NFVnice's
// per-chain backpressure (+ ECN) the TCP flow keeps most of its goodput
// and UDP holds its bottleneck rate throughout.

#include "harness.hpp"

using namespace bench;

namespace {

std::vector<std::vector<std::string>> run_timeline(const Mode& mode) {
  // Compressed timeline: 0-1 s TCP alone, 1-3 s +UDP, 3-4.5 s TCP alone.
  Simulation sim(make_config(mode));
  const auto shared = sim.add_core(SchedPolicy::kCfsBatch, 100.0);
  const auto extra = sim.add_core(SchedPolicy::kCfsBatch, 100.0);
  const auto nf1 = sim.add_nf("NF1", shared, nfv::nf::CostModel::fixed(250));
  const auto nf2 = sim.add_nf("NF2", shared, nfv::nf::CostModel::fixed(500));
  const auto nf3 = sim.add_nf("NF3", extra, nfv::nf::CostModel::fixed(30000));
  const auto tcp_chain = sim.add_chain("tcp", {nf1, nf2});
  const auto udp_chain = sim.add_chain("udp", {nf1, nf2, nf3});

  auto [tcp_flow, tcp_src] = sim.add_tcp_flow(tcp_chain);
  std::vector<nfv::flow::FlowId> udp_flows;
  for (int i = 0; i < 10; ++i) {
    nfv::core::UdpOptions opts;
    opts.size_bytes = 512;  // NF3 bottleneck => ~355 Mb/s aggregate UDP
    opts.start_seconds = 1.0 * time_scale();
    opts.stop_seconds = 3.0 * time_scale();
    udp_flows.push_back(sim.add_udp_flow(udp_chain, 5e5, opts));
  }

  std::vector<std::vector<std::string>> rows;
  std::uint64_t tcp_bytes_prev = 0, udp_bytes_prev = 0;
  const double step = seconds(0.25);
  for (int i = 1; i <= 18; ++i) {
    sim.run_for_seconds(step);
    // Per-flow counters live with the chains' shared first hop.
    const auto& tc = sim.mgr_of(nf1).flow_counters(tcp_flow);
    std::uint64_t udp_bytes = 0;
    for (const auto f : udp_flows) {
      udp_bytes += sim.mgr_of(nf1).flow_counters(f).egress_bytes;
    }
    const double tcp_gbps =
        static_cast<double>(tc.egress_bytes - tcp_bytes_prev) * 8 / step / 1e9;
    const double udp_mbps =
        static_cast<double>(udp_bytes - udp_bytes_prev) * 8 / step / 1e6;
    tcp_bytes_prev = tc.egress_bytes;
    udp_bytes_prev = udp_bytes;
    rows.push_back({fmt("%.2f", sim.now_seconds()), fmt("%.3f", tcp_gbps),
                    fmt("%.1f", udp_mbps), fmt("%.0f", tcp_src->cwnd())});
  }
  return rows;
}

}  // namespace

int main() {
  std::printf("Figure 13: TCP/UDP performance isolation (compressed "
              "timeline; paper runs 55 s)\n");
  std::printf("UDP bottleneck: NF3 capacity 2.6e9/30000 = 86.7 Kpps of 512 B "
              "= ~355 Mbps egress (paper: 280 Mbps)\n");
  ParallelRunner<std::vector<std::vector<std::string>>> runner;
  for (const Mode& mode : kDefaultVsNfvnice) {
    runner.submit([&mode] { return run_timeline(mode); });
  }
  const auto timelines = runner.run();
  for (std::size_t m = 0; m < timelines.size(); ++m) {
    print_title(std::string("Mode: ") + kDefaultVsNfvnice[m].name +
                "  (UDP active during [1s, 3s))");
    print_row({"t (s)", "TCP Gbps", "UDP Mbps", "TCP cwnd"});
    for (const auto& row : timelines[m]) print_row(row);
  }
  return 0;
}
