// Per-packet processing-cost models.
//
// The paper's NFs are characterised by their per-packet CPU cost in cycles
// (e.g. 120/270/550 in Fig. 7, up to 4500 in Table 5) and §2 stresses that
// "an NF may have variable per-packet costs". The cost model captures the
// variants the evaluation uses: fixed cost, a uniform choice among classes
// (Fig. 10's 120/270/550 mix), a class looked up from packet metadata, a
// state-dependent probe (the cost a stateful NF pays depends on what its
// flow table does with the packet: hit, miss, evict), and a runtime scale
// knob for the dynamic-adaptation experiment (Fig. 15a, where NF1's cost
// triples mid-run).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "pktio/mbuf.hpp"

namespace nfv::nf {

class CostModel {
 public:
  /// Every packet costs exactly `cycles`.
  static CostModel fixed(Cycles cycles);

  /// Each packet independently costs one of `choices`, uniformly at random
  /// (deterministic under `seed`). Models §4.3.1's variable costs.
  static CostModel uniform_choice(std::vector<Cycles> choices,
                                  std::uint64_t seed = 0x5eed);

  /// Cost selected by the packet's cost_class field (clamped to range).
  static CostModel per_class(std::vector<Cycles> class_costs);

  /// Cost decided by a probe that inspects — and may transition — the NF's
  /// per-flow state (install/touch/evict in its flow table). libnf runs the
  /// probe once per packet at burst-assembly time, in dequeue order, which
  /// is exactly the order handlers later run in — so the cost sequence (and
  /// the state it leaves behind) is identical at any burst window. The
  /// probe may stash a result for the handler in mbuf.nf_scratch.
  /// `nominal_cost` seeds capacity math before any samples exist.
  /// `prefetch`, when set, starts the cache misses the probe will take on
  /// a packet; libnf calls it on a whole burst before the burst's first
  /// probe (see prefetch()).
  static CostModel state_dependent(
      std::function<Cycles(pktio::Mbuf&)> probe, Cycles nominal_cost,
      std::function<void(const pktio::Mbuf&)> prefetch = {});

  /// True when prefetch() does anything: a state-dependent model built
  /// with a prefetch callback. Every other model has no state to warm.
  [[nodiscard]] bool prefetches() const { return static_cast<bool>(prefetch_); }
  /// Warm the per-flow state sample() will touch for `mbuf`. A cache hint
  /// only: it must not change any state the probe reads. Requires
  /// prefetches().
  void prefetch(const pktio::Mbuf& mbuf) const { prefetch_(mbuf); }

  /// Cost of processing this packet now, including the dynamic scale.
  /// Non-const mbuf: a state-dependent probe may write nf_scratch.
  [[nodiscard]] Cycles sample(pktio::Mbuf& mbuf);

  /// Multiply all costs by `scale` from now on (Fig. 15a's step change).
  void set_scale(double scale) { scale_ = scale; }
  [[nodiscard]] double scale() const { return scale_; }

  /// Nominal (unscaled mean) cost, for reporting and capacity math.
  [[nodiscard]] Cycles nominal() const;

 private:
  enum class Kind { kFixed, kUniformChoice, kPerClass, kStateDependent };

  CostModel(Kind kind, std::vector<Cycles> values, std::uint64_t seed)
      : kind_(kind), values_(std::move(values)), rng_(seed) {}

  Kind kind_;
  std::vector<Cycles> values_;
  Rng rng_;
  double scale_ = 1.0;
  std::function<Cycles(pktio::Mbuf&)> probe_;
  std::function<void(const pktio::Mbuf&)> prefetch_;
};

}  // namespace nfv::nf
