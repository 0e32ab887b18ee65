#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "flow/flow_table.hpp"
#include "obs/latency_estimator.hpp"
#include "pktio/mempool.hpp"
#include "pktio/ring.hpp"
#include "sched/cfs.hpp"
#include "sched/task.hpp"
#include "sim/engine.hpp"
#include "sim/shard_barrier.hpp"

namespace perfbench {

namespace {

// Results feed this sink so the timed loops cannot be optimised away.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 5;

/// Median over kBatches of the wall time per operation, in ns, of `batch`,
/// which performs `ops` operations per call.
template <typename F>
double median_ns_per_op(std::size_t ops, F&& batch) {
  std::vector<double> samples;
  for (int i = 0; i < kBatches; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    batch();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(ops));
  }
  std::sort(samples.begin(), samples.end());
  return samples[kBatches / 2];
}

class InertTask : public nfv::sched::Task {
 public:
  using Task::Task;
  void on_dispatch(nfv::Cycles) override {}
  void on_preempt(nfv::Cycles) override {}
};

double probe_dispatch(std::size_t depth) {
  // `depth` far-future events hold the ready queue at the run's depth; each
  // operation schedules one event due next and dispatches it.
  nfv::sim::Engine engine(nfv::sim::EngineBackend::kHeap);
  engine.reserve(depth + 16);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    const auto far = nfv::Cycles{1} << 50 | static_cast<nfv::Cycles>(i * 7919);
    engine.schedule_at(far, [&fired] { ++fired; });
  }
  constexpr std::size_t kOps = 200'000;
  const double ns = median_ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const nfv::Cycles when = engine.now() + 100;
      engine.schedule_at(when, [&fired] { ++fired; });
      engine.run_until(when);
    }
  });
  g_sink = g_sink + fired;
  return ns;
}

double probe_pick(std::size_t tasks, bool batch) {
  const nfv::CpuClock clock;
  nfv::sched::CfsScheduler cfs(nfv::sched::SchedParams::defaults(clock), batch);
  std::vector<std::unique_ptr<InertTask>> pool;
  for (std::size_t i = 0; i < std::max<std::size_t>(tasks, 1); ++i) {
    pool.push_back(std::make_unique<InertTask>("t" + std::to_string(i)));
    cfs.enqueue(pool.back().get(), /*is_wakeup=*/false);
  }
  // One context switch: pick the leftmost task, charge it a slice of
  // varying length, put it back.
  constexpr std::size_t kOps = 200'000;
  return median_ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      nfv::sched::Task* task = cfs.pick_next();
      cfs.on_run_end(task, static_cast<nfv::Cycles>(1000 + (i & 1023)));
      cfs.enqueue(task, /*is_wakeup=*/(i & 7) == 0);
    }
  });
}

double probe_ring(std::size_t burst) {
  nfv::pktio::MbufPool pool(static_cast<std::uint32_t>(burst));
  std::vector<nfv::pktio::Mbuf*> in(burst), out(burst);
  pool.alloc_burst(in.data(), static_cast<std::uint32_t>(burst));
  nfv::pktio::Ring ring(16384);
  constexpr std::size_t kOps = 100'000;
  std::uint64_t moved = 0;
  const double ns = median_ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      moved += ring.enqueue_burst(in.data(), burst);
      moved += ring.dequeue_burst(out.data(), burst);
    }
  });
  pool.free_burst(in.data(), static_cast<std::uint32_t>(burst));
  g_sink = g_sink + moved;
  return ns;
}

double probe_mbuf(std::size_t burst) {
  nfv::pktio::MbufPool pool(1u << 16);
  std::vector<nfv::pktio::Mbuf*> bufs(burst);
  const auto n = static_cast<std::uint32_t>(burst);
  constexpr std::size_t kOps = 100'000;
  std::uint64_t got = 0;
  const double ns = median_ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::uint32_t k = pool.alloc_burst(bufs.data(), n);
      got += k;
      pool.free_burst(bufs.data(), k);
    }
  });
  g_sink = g_sink + got;
  return ns;
}

double probe_lookup(std::size_t table_size) {
  const std::size_t n = std::max<std::size_t>(table_size, 1);
  nfv::flow::FlowTable table;
  std::vector<nfv::pktio::FlowKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i].src_ip = 0x0b000000u + static_cast<std::uint32_t>(i);
    keys[i].dst_ip = 0x0a800001u;
    keys[i].src_port = static_cast<std::uint16_t>(1024 + (i * 31) % 60000);
    keys[i].dst_port = 80;
    keys[i].proto = 17;
    table.install(keys[i], 0);
  }
  // Visit the keys in a scrambled order so a large table misses the caches
  // the way the run's arrival order does.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = static_cast<std::uint32_t>((i * 2654435761ULL) % n);
  }
  constexpr std::size_t kOps = 500'000;
  std::uint64_t found = 0;
  const double ns = median_ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      found += table.lookup(keys[order[i % n]]) != nullptr;
    }
  });
  g_sink = g_sink + found;
  return ns;
}

double probe_latency_record() {
  nfv::obs::LatencyEstimator est;
  constexpr std::size_t kOps = 1'000'000;
  std::uint64_t x = 88172645463325252ULL;
  const double ns = median_ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      est.record(x & 0xfffff);
    }
  });
  g_sink = g_sink + est.total_count();
  return ns;
}

double probe_barrier_us(std::size_t lanes, std::size_t workers) {
  nfv::sim::ShardExecutor exec(std::max<std::size_t>(lanes, 1),
                               std::max<std::size_t>(workers, 1));
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  constexpr std::size_t kOps = 20'000;
  return median_ns_per_op(kOps, [&] {
           for (std::size_t i = 0; i < kOps; ++i) exec.run_phase(noop);
         }) /
         1000.0;
}

}  // namespace

ProbeResult run_probes(const ProbeSizes& sizes, SpanRecorder& spans) {
  ProbeResult r;
  ScopedSpan all(spans, "probes");
  {
    ScopedSpan s(spans, "probe.sim.dispatch");
    r.dispatch_ns = probe_dispatch(sizes.pending_depth);
  }
  {
    ScopedSpan s(spans, "probe.sched.pick");
    r.pick_ns = probe_pick(sizes.nfs_per_core, sizes.cfs_batch);
  }
  {
    ScopedSpan s(spans, "probe.pktio.ring_burst");
    r.ring_burst_ns = probe_ring(sizes.burst);
  }
  {
    ScopedSpan s(spans, "probe.pktio.mbuf_burst");
    r.mbuf_burst_ns = probe_mbuf(sizes.burst);
  }
  {
    ScopedSpan s(spans, "probe.flow.lookup");
    r.lookup_ns = probe_lookup(sizes.flow_table_size);
  }
  {
    ScopedSpan s(spans, "probe.obs.latency_record");
    r.latency_record_ns = probe_latency_record();
  }
  {
    ScopedSpan s(spans, "probe.shard.barrier");
    r.barrier_us = probe_barrier_us(sizes.lanes, sizes.workers);
  }
  return r;
}

}  // namespace perfbench
