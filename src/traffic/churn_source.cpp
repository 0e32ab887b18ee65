#include "traffic/churn_source.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nfv::traffic {

namespace {
/// Flow lengths above this are clamped: one elephant should dominate a
/// scenario, not outlive every simulation we could ever run.
constexpr std::uint64_t kMaxFlowPackets = 10'000'000;
}  // namespace

ChurnSource::ChurnSource(sim::Engine& engine, mgr::Manager& manager,
                         pktio::MbufPool& pool, flow::FlowTable& flows,
                         const CpuClock& clock, Config config)
    : engine_(engine),
      manager_(manager),
      pool_(pool),
      flows_(flows),
      config_(config),
      gap_rng_(config.seed ^ 0x67617073ULL),   // "gaps"
      flow_rng_(config.seed ^ 0x666c6f77ULL) {  // "flow"
  assert(config_.rate_pps > 0.0);
  assert(config_.concurrent_flows > 0);
  assert(config_.pareto_alpha > 0.0);
  assert(config_.pareto_min_packets >= 1.0);
  interval_ = std::max<Cycles>(1, clock.from_seconds(1.0 / config_.rate_pps));
  batch_.reserve(std::max<std::uint32_t>(1, config_.burst));
  draws_.reserve(batch_.capacity());
  active_.resize(config_.concurrent_flows);
}

ChurnSource::~ChurnSource() {
  if (pending_ != sim::kInvalidEventId) engine_.cancel(pending_);
}

void ChurnSource::start() {
  next_time_ = std::max(config_.start_time, engine_.now());
  for (ActiveFlow& f : active_) {
    f.key = flow_key(flows_created_++);
    f.remaining = draw_flow_length();
    flows_.install(f.key, config_.chain, next_time_);
  }
  arm();
}

std::uint64_t ChurnSource::draw_flow_length() {
  // Inverse-CDF Pareto draw: len = x_m / u^(1/alpha), u ~ U(0,1].
  const double u = 1.0 - flow_rng_.next_double();  // (0, 1]
  const double len = config_.pareto_min_packets /
                     std::pow(u, 1.0 / config_.pareto_alpha);
  if (len >= static_cast<double>(kMaxFlowPackets)) return kMaxFlowPackets;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(len));
}

pktio::FlowKey ChurnSource::flow_key(std::uint64_t n) const {
  // Enumerate a fresh, never-reused 5-tuple for every flow birth.
  pktio::FlowKey key;
  key.src_ip = config_.src_ip_base + static_cast<std::uint32_t>(n / 60000);
  key.src_port = static_cast<std::uint16_t>(1 + n % 60000);
  key.dst_ip = config_.dst_ip;
  key.dst_port = config_.dst_port;
  key.proto = pktio::kProtoUdp;
  return key;
}

Cycles ChurnSource::draw_gap() {
  // Zero-mean uniform jitter (±10%) keeps the aggregate rate exact while
  // breaking phase locking with other sources, as in UdpSource.
  const double u = 2.0 * gap_rng_.next_double() - 1.0;  // [-1, 1)
  const Cycles gap =
      interval_ + static_cast<Cycles>(0.1 * u * static_cast<double>(interval_));
  return gap < 1 ? 1 : gap;
}

void ChurnSource::arm() {
  const std::uint32_t k = std::max<std::uint32_t>(1, config_.burst);
  batch_.clear();
  batch_.push_back(next_time_);
  for (std::uint32_t i = 1; i < k; ++i) {
    batch_.push_back(batch_.back() + draw_gap());
  }
  next_time_ = batch_.back() + draw_gap();
  pending_ = engine_.schedule_at(batch_.back(), [this] { emit_batch(); });
}

void ChurnSource::emit_batch() {
  pending_ = sim::kInvalidEventId;
  // Draw phase: the slot pick per packet and, on retirement, the
  // successor's length — the flow-RNG sequence of one-at-a-time emission.
  // A slot re-picked after retiring in this batch already carries its
  // successor's key. The flow completes even if the pool later starves
  // its last packet: flow lifetimes must not depend on pool occupancy.
  draws_.clear();
  std::uint64_t born = flows_created_;
  for (const Cycles t : batch_) {
    if (config_.stop_time >= 0 && t >= config_.stop_time) break;  // halt
    const auto slot =
        static_cast<std::uint32_t>(flow_rng_.next_below(active_.size()));
    ActiveFlow& f = active_[slot];
    draws_.push_back(Draw{f.key, slot, false});
    if (--f.remaining == 0) {
      draws_.back().retires = true;
      f.key = flow_key(born++);
      f.remaining = draw_flow_length();
    }
  }
  // Every packet's table lookup, and every successor's install, misses to
  // memory at 100k-flow scale; start those misses now so they overlap
  // instead of serializing per packet.
  for (const Draw& d : draws_) flows_.prefetch(d.key);
  for (std::uint64_t n = flows_created_; n < born; ++n) {
    flows_.prefetch(flow_key(n));
  }
  // Emit phase, in packet order.
  for (std::size_t i = 0; i < draws_.size(); ++i) {
    emit_one(batch_[i], draws_[i]);
  }
  if (draws_.size() == batch_.size()) arm();
}

void ChurnSource::emit_one(Cycles arrival, const Draw& draw) {
  ActiveFlow& f = active_[draw.slot];
  pktio::Mbuf* pkt = pool_.alloc();
  if (pkt == nullptr) {
    ++alloc_drops_;
  } else {
    pkt->size_bytes = config_.size_bytes;
    pkt->is_tcp = false;
    pkt->seq = f.seq++;
    ++sent_;
    manager_.ingress(pkt, draw.key, arrival);
  }
  if (draw.retires) {
    ++flows_retired_;
    f.seq = 0;
    flows_.install(flow_key(flows_created_++), config_.chain, arrival);
  }
}

}  // namespace nfv::traffic
