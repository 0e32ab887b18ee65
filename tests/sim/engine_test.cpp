#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace nfv::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  Cycles fired_at = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  Cycles fired_at = -1;
  e.schedule_at(10, [&] {
    e.schedule_after(-5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 10);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(20, [&] { ++fired; });
  e.schedule_at(21, [&] { ++fired; });
  const auto n = e.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 20);  // clock advances to the deadline
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotent) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(kInvalidEventId));
  EXPECT_FALSE(e.cancel(999999));  // never issued
  e.run();
}

TEST(Engine, CancelFromWithinEarlierEvent) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(20, [&] { fired = true; });
  e.schedule_at(10, [&] { e.cancel(id); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  int count = 0;
  e.schedule_periodic(10, [&] { ++count; });
  e.run_until(100);
  EXPECT_EQ(count, 10);  // t=10,20,...,100
}

TEST(Engine, PeriodicCancelStops) {
  Engine e;
  int count = 0;
  const EventId id = e.schedule_periodic(10, [&] { ++count; });
  e.schedule_at(35, [&] { e.cancel(id); });
  e.run_until(200);
  EXPECT_EQ(count, 3);  // t=10,20,30
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine e;
  int count = 0;
  EventId id = kInvalidEventId;
  id = e.schedule_periodic(10, [&] {
    if (++count == 5) e.cancel(id);
  });
  e.run_until(1000);
  EXPECT_EQ(count, 5);
}

TEST(Engine, DispatchedEventsCounts) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.dispatched_events(), 5u);
}

TEST(Engine, EventsScheduledDuringRunAreExecuted) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_after(1, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST(Engine, SameCycleInsertionDuringDispatchFires) {
  // A callback scheduling at the *current* cycle must see the new event run
  // at that cycle, after the events already due then.
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.schedule_at(10, [&] { order.push_back(2); });
  });
  e.schedule_at(10, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));  // fresh seq sorts last
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, CancelAfterFireIsNoOp) {
  // Regression: cancelling an already-fired one-shot used to decrement
  // pending_events (underflowing the gauge) and leak heap bookkeeping.
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(10, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.pending_events(), 0u);  // no underflow
  // The engine must still work normally afterwards.
  e.schedule_after(5, [&] { ++fired; });
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, StaleIdCannotCancelReusedSlot) {
  // After a one-shot fires, its slot is recycled for new events. A stale
  // EventId (same slot, older generation) must not cancel the new tenant.
  Engine e;
  bool second_fired = false;
  const EventId old_id = e.schedule_at(1, [] {});
  e.run();
  // The next schedule reuses the freed slot.
  const EventId new_id = e.schedule_at(10, [&] { second_fired = true; });
  EXPECT_FALSE(e.cancel(old_id));  // stale generation: refused
  e.run();
  EXPECT_TRUE(second_fired);
  EXPECT_NE(old_id, new_id);
}

TEST(Engine, CancelledSlotIsRecycledSafely) {
  // Cancelling an armed event frees its slot immediately; a stale cancel of
  // the same id after the slot is re-armed must be refused.
  Engine e;
  const EventId a = e.schedule_at(50, [] { FAIL() << "cancelled event ran"; });
  EXPECT_TRUE(e.cancel(a));
  EXPECT_EQ(e.pending_events(), 0u);
  int fired = 0;
  e.schedule_at(60, [&] { ++fired; });  // reuses a's slot
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, OneShotSelfCancelDuringDispatchIsNoOp) {
  // A callback cancelling its own (already-firing) id must get `false` and
  // leave the engine consistent.
  Engine e;
  EventId id = kInvalidEventId;
  bool self_cancel_result = true;
  id = e.schedule_at(10, [&] { self_cancel_result = e.cancel(id); });
  e.run();
  EXPECT_FALSE(self_cancel_result);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, ManyCancelledEventsDoNotAccumulateState) {
  // With O(1) cancellation the slot must be reusable at once: heavy
  // schedule/cancel churn keeps pending_events exact.
  Engine e;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = e.schedule_after(100, [] {});
    EXPECT_TRUE(e.cancel(id));
  }
  EXPECT_EQ(e.pending_events(), 0u);
  int fired = 0;
  e.schedule_after(1, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.dispatched_events(), 1u);
}

TEST(Engine, DeterministicUnderChurn) {
  // Two engines fed the identical schedule/cancel pattern must observe the
  // identical dispatch sequence — the determinism contract every simulation
  // above relies on.
  const auto run_once = [] {
    Engine e;
    std::vector<Cycles> fire_times;
    std::vector<EventId> live;
    std::uint64_t seed = 99;
    for (int i = 0; i < 3000; ++i) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const Cycles t = static_cast<Cycles>(seed % 5000);
      live.push_back(
          e.schedule_at(t, [&fire_times, &e] { fire_times.push_back(e.now()); }));
      if (seed % 3 == 0 && !live.empty()) {
        e.cancel(live[seed % live.size()]);
      }
    }
    e.run();
    return fire_times;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(Engine, PopsThroughEveryPartialChildGroup) {
  // A heap pop whose sift-down reaches a last child group that is only
  // partly filled (grandchild < size <= grandchild + 3) must stay inside
  // the heap; under -D_GLIBCXX_ASSERTIONS an out-of-range index aborts.
  // Ascending insertion keeps the array sorted, so every pop descends
  // through child 1 and its children at 5..8 for each size in turn.
  for (int size = 1; size <= 40; ++size) {
    Engine e;
    std::vector<Cycles> times;
    for (int i = 0; i < size; ++i) {
      e.schedule_at(i + 1, [&times, &e] { times.push_back(e.now()); });
    }
    e.run();
    ASSERT_EQ(times.size(), static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) ASSERT_EQ(times[i], i + 1) << size;
  }
}

TEST(Engine, HeavyLoadOrderingProperty) {
  // Many events at random times must still execute in nondecreasing order.
  Engine e;
  std::vector<Cycles> times;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 10000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const Cycles t = static_cast<Cycles>(seed % 100000);
    e.schedule_at(t, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 10000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_LE(times[i - 1], times[i]);
  }
}

TEST(Engine, FarFutureEventsFireInOrder) {
  // Deltas from 1 to 2^56 cycles: the packed key's `when` half must order
  // them exactly, far past any simulated run length.
  Engine e;
  std::vector<Cycles> times;
  for (int i = 0; i < 57; ++i) {
    e.schedule_at(Cycles{1} << i, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 57u);
  for (int i = 0; i < 57; ++i) EXPECT_EQ(times[i], Cycles{1} << i);
}

TEST(Engine, FarFutureCancelIsExact) {
  // Cancelling far-future events drops pending_events immediately, and
  // their stale heap keys never fire.
  Engine e;
  std::vector<EventId> ids;
  for (int i = 10; i < 50; ++i) {
    ids.push_back(e.schedule_at(Cycles{1} << i, [] { FAIL(); }));
  }
  EXPECT_EQ(e.pending_events(), ids.size());
  for (const EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending_events(), 0u);
  e.run();
  EXPECT_EQ(e.dispatched_events(), 0u);
}

TEST(Engine, ReserveIsBehaviourNeutral) {
  Engine e;
  e.reserve(1 << 16);
  std::vector<int> order;
  e.schedule_at(2, [&] { order.push_back(2); });
  e.schedule_at(1, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, PeriodicWithLongPeriodCrossesLevels) {
  // A long period: every re-arm takes a fresh sequence number and must
  // fire exactly on time.
  Engine e;
  std::vector<Cycles> times;
  e.schedule_periodic(1000, [&] { times.push_back(e.now()); });
  e.run_until(10'000);
  ASSERT_EQ(times.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(times[i], Cycles{1000} * (i + 1));
}

/// Reference model of the engine's ordering contract: a sorted set of
/// (when, seq, id) with cancel-by-id. Every schedule and every periodic
/// re-arm takes the next seq, as in the engine, so dispatch is by (when,
/// seq). A periodic entry stops after `runs` firings, as if it cancelled
/// itself in its callback.
class ReferenceQueue {
 public:
  int schedule_at(Cycles when, int tag, Cycles period = 0, int runs = 0) {
    entries_.push_back({tag, period, runs, when, next_seq_++, true});
    queue_.emplace(when, entries_.back().seq, entries_.size() - 1);
    return static_cast<int>(entries_.size() - 1);
  }
  bool cancel(int id) {
    Entry& e = entries_[id];
    if (!e.live) return false;
    queue_.erase({e.when, e.seq, id});
    e.live = false;
    return true;
  }
  void run_until(Cycles deadline, std::vector<std::pair<Cycles, int>>& log) {
    while (!queue_.empty() && std::get<0>(*queue_.begin()) <= deadline) {
      const auto [when, seq, id] = *queue_.begin();
      queue_.erase(queue_.begin());
      Entry& e = entries_[id];
      now_ = when;
      log.emplace_back(now_, e.tag);
      ++dispatched_;
      e.live = e.period > 0 && --e.runs > 0;
      if (!e.live) continue;
      e.when = now_ + e.period;
      e.seq = next_seq_++;
      queue_.emplace(e.when, e.seq, id);
    }
    now_ = std::max(now_, deadline);
  }
  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Entry {
    int tag;
    Cycles period;
    int runs;
    Cycles when;
    std::uint64_t seq;
    bool live;
  };
  std::vector<Entry> entries_;
  std::set<std::tuple<Cycles, std::uint64_t, std::size_t>> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  Cycles now_ = 0;
};

// Differential contract: the engine and the reference queue, fed one
// randomized mix of near and far one-shots, self-cancelling periodics,
// cancels and partial run_until drains, must log the *identical* dispatch
// sequence — same tags at the same times in the same order. This is the
// unit-level form of the byte-identical-reports guarantee.
TEST(Engine, ReferenceQueueDifferentialChurn) {
  Engine e;
  ReferenceQueue ref;
  std::vector<std::pair<Cycles, int>> log;
  std::vector<std::pair<Cycles, int>> ref_log;
  std::vector<std::pair<EventId, int>> live;  // one-shots: engine id, ref id
  std::uint64_t seed = 0xabcdef12345ULL;
  const auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 16;
  };
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t r = next();
    switch (r % 5) {
      case 0:
      case 1: {  // one-shot at a near/far mix of horizons
        const Cycles t =
            e.now() + static_cast<Cycles>((r % 3 == 0)
                                              ? next() % (Cycles{1} << 34)
                                              : next() % 4096);
        const int tag = i;
        live.emplace_back(
            e.schedule_at(t, [&log, &e, tag] { log.emplace_back(e.now(), tag); }),
            ref.schedule_at(t, tag));
        break;
      }
      case 2: {  // periodic that cancels itself after four firings
        const Cycles period = 1 + static_cast<Cycles>(next() % 700);
        const int tag = -i;
        struct Periodic {
          EventId id = kInvalidEventId;
          int count = 0;
        };
        auto st = std::make_shared<Periodic>();
        st->id = e.schedule_periodic(period, [&log, &e, tag, st] {
          log.emplace_back(e.now(), tag);
          if (++st->count == 4) e.cancel(st->id);
        });
        ref.schedule_at(ref.now() + period, tag, period, 4);
        break;
      }
      case 3:  // cancel a random one-shot, pending or not
        if (!live.empty()) {
          const auto [id, ref_id] = live[next() % live.size()];
          ASSERT_EQ(e.cancel(id), ref.cancel(ref_id));
        }
        break;
      case 4: {  // partial drain, then keep scheduling
        const Cycles deadline = e.now() + static_cast<Cycles>(next() % 2000);
        e.run_until(deadline);
        ref.run_until(deadline, ref_log);
        ASSERT_EQ(e.now(), ref.now());
        break;
      }
    }
    ASSERT_EQ(e.pending_events(), ref.pending());
  }
  e.run_until(Cycles{1} << 35);
  ref.run_until(Cycles{1} << 35, ref_log);
  ASSERT_GT(log.size(), 1000u);
  EXPECT_EQ(log, ref_log);
  EXPECT_EQ(e.dispatched_events(), ref.dispatched());
  EXPECT_EQ(e.now(), ref.now());
}

}  // namespace
}  // namespace nfv::sim
