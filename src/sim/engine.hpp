// Deterministic discrete-event engine.
//
// The substrate that stands in for real time on the paper's testbed: every
// component (traffic generators, the NF Manager's Rx/Tx/Wakeup/Monitor
// threads, the CPU scheduler, the disk) advances by scheduling events on
// this engine. Event order is total and deterministic: ties on timestamp
// break on the monotonically increasing sequence number assigned at
// scheduling time, so a simulation with the same seed reproduces exactly.
//
// Storage is built for the hot path. Callbacks live in pool-allocated slots
// grouped into fixed-size pages whose addresses never move, so a callback
// is constructed in its slot at the schedule call site and invoked in place
// at dispatch — no per-event heap allocation for ordinary lambdas and no
// intermediate moves.
//
// The ready queue is a 4-ary heap of 16-byte keys owned by the engine —
// (when, seq, slot) packed into one 128-bit integer, so a heap comparison
// is a single wide compare and a children group is two cache lines
// (DESIGN.md §15). Cancellation is O(1) and lazy: it clears the slot's
// armed state and the stale heap key is discarded for free when it
// surfaces.
//
// Event order is total by (when, seq). An EventId encodes (slot index,
// sequence number); sequence numbers are never reused, so cancelling an
// already-fired or never-issued id is a true no-op — no bookkeeping grows
// with it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/small_callback.hpp"

namespace nfv::sim {

/// Identifies a scheduled event so it can be cancelled before it fires
/// (e.g. a quantum-expiry event when the task yields voluntarily first).
/// Encodes (slot index << 40 | sequence number); sequence numbers start at
/// 1 and are globally unique, so no valid id equals kInvalidEventId and a
/// stale id can never alias a newer event in the same slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Tag naming the engine's one ready queue. Kept only because perfbench/
/// names it; it goes with perfbench's next change.
enum class EngineBackend : std::uint8_t { kHeap };

class Engine {
 public:
  using Callback = SmallCallback;

  Engine() = default;
  /// Tag constructor perfbench/ calls; goes with perfbench's next change.
  explicit Engine(EngineBackend /*heap*/) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Pre-size the slot pool and the heap for `pending_hint` concurrently
  /// pending events, so benches and million-timer workloads do not pay
  /// warm-up reallocation spikes.
  void reserve(std::size_t pending_hint);

  [[nodiscard]] Cycles now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (must be >= now()). Templated so
  /// the callable is constructed directly into its pooled slot at the call
  /// site — the schedule path compiles down to slot stores plus a heap
  /// push, with no allocation for small callables.
  template <typename F>
  EventId schedule_at(Cycles when, F&& cb) {
    assert(when >= now_ && "cannot schedule into the past");
    if (when < now_) when = now_;
    const std::uint32_t index = alloc_slot();
    Slot& slot = slot_ref(index);
    emplace_callback(slot, std::forward<F>(cb));
    const std::uint64_t seq = next_seq_++;
    slot.state = kArmedBit | seq;
    heap_push(make_key(when, seq, index));
    ++pending_;
    return make_id(index, seq);
  }

  /// Schedule `cb` after `delay` cycles (clamped to >= 0).
  template <typename F>
  EventId schedule_after(Cycles delay, F&& cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(cb));
  }

  /// Schedule `cb` every `period` cycles starting at now()+period, until the
  /// engine stops. The callback may call cancel() on the returned id; the id
  /// stays valid across re-arms (the task keeps its slot, and the id's birth
  /// sequence number is remembered for the slot's whole periodic tenancy).
  template <typename F>
  EventId schedule_periodic(Cycles period, F&& cb) {
    assert(period > 0 && "periodic events need a positive period");
    const std::uint32_t index = alloc_slot();
    Slot& slot = slot_ref(index);
    emplace_callback(slot, std::forward<F>(cb));
    slot.period = period;
    const std::uint64_t seq = next_seq_++;
    slot.state = kArmedBit | seq;
    if (periodic_birth_.size() < slot_count_) {
      periodic_birth_.resize(slot_count_);
    }
    periodic_birth_[index] = seq;
    heap_push(make_key(now_ + period, seq, index));
    ++pending_;
    return make_id(index, seq);
  }

  /// Cancel a pending event. Idempotent; cancelling an already-fired or
  /// invalid id is a no-op. Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Run until the event queue drains or simulated time would pass
  /// `deadline`. Events exactly at `deadline` are executed. Returns the
  /// number of events dispatched.
  std::uint64_t run_until(Cycles deadline);

  /// Run until the queue drains.
  std::uint64_t run();

  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  [[nodiscard]] std::uint64_t dispatched_events() const { return dispatched_; }

 private:
  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  /// EventId / heap-key field widths. 24 bits of slot index bounds the
  /// engine at ~16.7M *concurrently pending* events (far above any sweep;
  /// alloc_slot asserts it); 40 bits of sequence number bounds one engine's
  /// lifetime at ~1.1e12 scheduled events (~a day of nonstop dispatch at
  /// micro-bench rates; make_id asserts it).
  static constexpr unsigned kSeqBits = 40;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask =
      (std::uint32_t{1} << kSlotBits) - 1;

  /// Slot::state encodings. Armed: kArmedBit | seq of the pending
  /// occurrence. Executing (callback running in place): kIdle, or
  /// kCancelledBit if the running periodic cancelled itself. On the free
  /// list: the index of the next free slot (always < 2^32, so it can never
  /// alias the armed pattern). The lifetimes are disjoint, and sharing the
  /// field keeps sizeof(Slot) at exactly 64.
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kArmedBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kCancelledBit = std::uint64_t{1} << 62;

  /// One pooled event record, packed into a single cache line. `state`
  /// carries the armed sequence number; releasing the slot never needs to
  /// touch a generation counter because sequence numbers are never reused.
  struct alignas(64) Slot {
    Callback cb;
    Cycles period = 0;  ///< >0 marks a periodic task
    std::uint64_t state = kIdle;
  };
  static_assert(sizeof(Slot) == 64, "event slot must stay one cache line");

  /// Slots live in fixed-size pages so their addresses survive pool growth:
  /// a callback executing in place stays valid even when it schedules
  /// enough new events to allocate another page.
  static constexpr unsigned kPageShift = 9;  ///< 512 slots per page
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;

  /// Ready-queue key: (when << 64) | (seq << 24) | slot. The total order is
  /// (when, seq) — the slot bits are tie-break-dead because sequence
  /// numbers are unique — so one 128-bit compare replaces the two-field
  /// compare AND the key carries everything dispatch needs. `when` is never
  /// negative (schedule_at clamps to now()), so the unsigned cast preserves
  /// order.
  using Key = unsigned __int128;
  static Key make_key(Cycles when, std::uint64_t seq, std::uint32_t slot) {
    return (static_cast<Key>(static_cast<std::uint64_t>(when)) << 64) |
           (seq << kSlotBits) | slot;
  }
  static Cycles key_when(Key key) {
    return static_cast<Cycles>(static_cast<std::uint64_t>(key >> 64));
  }

  static constexpr unsigned kArityShift = 2;  ///< 4-ary heap
  static constexpr std::size_t kArity = std::size_t{1} << kArityShift;

  [[nodiscard]] Slot& slot_ref(std::uint32_t index) {
    return pages_[index >> kPageShift][index & (kPageSize - 1)];
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNilIndex) {
      const std::uint32_t index = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot_ref(index).state);
      return index;
    }
    if (slot_count_ == pages_.size() * kPageSize) {
      pages_.push_back(std::make_unique<Slot[]>(kPageSize));
    }
    assert(slot_count_ < kSlotMask && "too many concurrently pending events");
    return static_cast<std::uint32_t>(slot_count_++);
  }

  /// Construct the callable in place; a SmallCallback argument is moved in
  /// instead of being wrapped in another SmallCallback.
  template <typename F>
  static void emplace_callback(Slot& slot, F&& cb) {
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slot.cb = std::forward<F>(cb);
    } else {
      slot.cb.emplace(std::forward<F>(cb));
    }
  }

  void heap_push(Key key) {
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> kArityShift;
      if (key >= heap_[parent]) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  void release_slot(std::uint32_t index);
  void heap_pop();
  std::uint64_t dispatch_until(Cycles deadline);
  void dispatch_periodic(std::uint32_t index);

  static EventId make_id(std::uint32_t slot, std::uint64_t seq) {
    assert(seq <= kSeqMask && "sequence number space exhausted");
    return (static_cast<EventId>(slot) << kSeqBits) | seq;
  }

  Cycles now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t pending_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap over packed (when, seq, slot)
  std::vector<std::unique_ptr<Slot[]>> pages_;
  std::size_t slot_count_ = 0;
  std::uint32_t free_head_ = kNilIndex;
  /// Birth sequence number of each slot's periodic tenancy, indexed by
  /// slot. A periodic's re-arms take fresh sequence numbers (tie-break
  /// determinism requires it), but its EventId keeps the birth seq — this
  /// side table lets cancel() recognise that id for the slot's whole
  /// tenancy. Only read when slot.period > 0, and any such slot was covered
  /// by the resize in schedule_periodic, so the one-shot hot path never
  /// touches it.
  std::vector<std::uint64_t> periodic_birth_;
};

}  // namespace nfv::sim
