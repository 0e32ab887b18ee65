// Raw event-engine throughput: the substrate under every figure and table.
//
// Every bench run dispatches millions of engine events, so events/sec here
// bounds simulated-seconds/sec everywhere. The scenario mix mirrors what
// the simulation actually puts on the engine: a fig07-style chain run
// carries only ~6 pending events at any instant (traffic source + per-NF
// work events + manager/core timers), so the small-N churn and cancel
// scenarios are the representative ones; the 4k/100k variants are stress
// cases for sweep-scale topologies. Timing is process CPU time (like the
// google-benchmark rates in micro_substrate): the workload is
// single-threaded and seed-deterministic, so CPU time is its cost and is
// immune to host preemption/steal. Each scenario is additionally run three
// times and the fastest repetition reported — min-of-N is the standard
// estimator of the undisturbed cost.

#include <ctime>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/engine.hpp"

namespace {

using nfv::Cycles;
using nfv::sim::Engine;
using nfv::sim::EventId;

/// Deterministic LCG so every run (and both engine generations) sees the
/// exact same event-time sequence.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

struct ScenarioResult {
  std::string name;
  std::uint64_t events;   ///< events dispatched
  std::uint64_t ops;      ///< schedule + cancel + dispatch operations
  double cpu_seconds;
};

double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Steady-state churn: `outstanding` armed timers, each dispatch re-arms
/// one — the shape NfTask work events and traffic sources put on the
/// engine. The scheduled callable is a [this]-capturing lambda, matching
/// how real components arm events. outstanding=8 matches the measured
/// pending count of a real chain run; 4096 models sweep-scale topologies.
struct Churn {
  Engine engine;
  Lcg lcg{0xabcdULL};
  std::uint64_t fired = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t total = 0;

  void arm() {
    ++scheduled;
    engine.schedule_after(1 + static_cast<Cycles>(lcg.next() % 1000),
                          [this] { tick(); });
  }
  void tick() {
    ++fired;
    if (scheduled < total) arm();
  }
};

ScenarioResult run_churn(int outstanding, std::uint64_t total) {
  Churn churn;
  churn.total = total;
  const double t0 = now_seconds();
  for (int i = 0; i < outstanding; ++i) churn.arm();
  churn.engine.run();
  const double elapsed = now_seconds() - t0;
  return {"churn_" + std::to_string(outstanding), churn.fired, churn.fired * 2,
          elapsed};
}

/// The quantum-expiry pattern: a guard timer is scheduled alongside every
/// work event and almost always cancelled before it fires (a task that
/// yields voluntarily first). Small outstanding count, 50% cancel rate.
struct CancelChurn {
  Engine engine;
  Lcg lcg{0xfeedULL};
  std::uint64_t fired = 0;
  std::uint64_t ops = 0;
  std::uint64_t total = 0;
  EventId guard = nfv::sim::kInvalidEventId;

  void tick() {
    ++fired;
    engine.cancel(guard);  // almost always still pending -> O(1) discard
    if (fired < total) {
      const Cycles dt = 1 + static_cast<Cycles>(lcg.next() % 500);
      engine.schedule_after(dt, [this] { tick(); });
      guard = engine.schedule_after(dt + 1000, [] {});
      ops += 3;
    }
  }
};

ScenarioResult run_cancel_churn(std::uint64_t total) {
  CancelChurn churn;
  churn.total = total;
  const double t0 = now_seconds();
  churn.engine.schedule_after(1, [&churn] { churn.tick(); });
  churn.engine.run();
  const double elapsed = now_seconds() - t0;
  return {"cancel_churn", churn.fired, churn.ops, elapsed};
}

/// Bulk load: rounds of (schedule 100k at random times, drain) — a stress
/// case far beyond any current bench topology.
ScenarioResult run_schedule_drain() {
  constexpr int kRounds = 10;
  constexpr int kPerRound = 100'000;
  Engine engine;
  Lcg lcg{0x5eedULL};
  std::uint64_t fired = 0;
  const double t0 = now_seconds();
  for (int round = 0; round < kRounds; ++round) {
    const Cycles base = engine.now();
    for (int i = 0; i < kPerRound; ++i) {
      engine.schedule_at(base + static_cast<Cycles>(lcg.next() % 1'000'000),
                         [&fired] { ++fired; });
    }
    engine.run();
  }
  const double elapsed = now_seconds() - t0;
  return {"drain_100k", fired, fired * 2, elapsed};
}

/// Cancel-heavy bulk: schedule 100k, cancel every other id, drain.
ScenarioResult run_cancel_heavy() {
  constexpr int kRounds = 10;
  constexpr int kPerRound = 100'000;
  Engine engine;
  Lcg lcg{0xc0ffeeULL};
  std::uint64_t fired = 0;
  std::uint64_t ops = 0;
  const double t0 = now_seconds();
  for (int round = 0; round < kRounds; ++round) {
    const Cycles base = engine.now();
    std::vector<EventId> ids;
    ids.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(
          engine.schedule_at(base + static_cast<Cycles>(lcg.next() % 1'000'000),
                             [&fired] { ++fired; }));
    }
    for (int i = 0; i < kPerRound; i += 2) engine.cancel(ids[i]);
    engine.run();
    ops += kPerRound + kPerRound / 2 + kPerRound / 2;
  }
  const double elapsed = now_seconds() - t0;
  return {"cancel_100k", fired, ops, elapsed};
}

/// Periodic ticks: 512 timers with co-prime-ish periods, one long run —
/// the Manager/Core monitor-tick pattern at scale.
ScenarioResult run_periodic() {
  constexpr int kTimers = 512;
  constexpr Cycles kHorizon = 400'000;
  Engine engine;
  std::uint64_t fired = 0;
  for (int i = 0; i < kTimers; ++i) {
    engine.schedule_periodic(97 + i, [&fired] { ++fired; });
  }
  const double t0 = now_seconds();
  engine.run_until(kHorizon);
  const double elapsed = now_seconds() - t0;
  return {"periodic", fired, fired * 2, elapsed};
}

/// Million-timer steady state (DESIGN.md §15): 500k self-re-arming tickers
/// plus 500k long-dated guard timers that are cancelled and replaced in a
/// churn mix — 1M pending at every instant of the timed region, where the
/// heap pays O(log 1M) ≈ 10 cache-missing levels per operation. No paper
/// scenario comes near this regime; the rate is printed for reference and
/// gated nowhere. Seeding happens outside the timed region, and the run
/// stops at a fixed horizon (not drain-to-empty) so the measurement never
/// leaves the 1M-pending regime.
ScenarioResult run_timer_heavy() {
  constexpr std::size_t kTickers = 500'000;
  constexpr std::size_t kGuards = 500'000;
  constexpr Cycles kHorizon = Cycles{1} << 18;
  struct State {
    Engine engine;
    Lcg lcg{0x1e6f00dULL};
    std::vector<EventId> guards;
    std::uint64_t ticks = 0;
    std::uint64_t ops = 0;
    void tick() {
      engine.schedule_after(1 + static_cast<Cycles>(lcg.next() % (1u << 16)),
                            [this] { tick(); });
      ops += 2;  // dispatch + re-arm
      if ((++ticks & 3) == 0) {  // churn: replace one guard every 4th fire
        EventId& g = guards[(ticks >> 2) % guards.size()];
        engine.cancel(g);
        g = engine.schedule_after(
            (Cycles{1} << 16) + static_cast<Cycles>(lcg.next() % (1u << 24)),
            [] {});
        ops += 2;  // cancel + schedule
      }
    }
  };
  State st;
  st.engine.reserve(kTickers + kGuards + 8);
  for (std::size_t i = 0; i < kTickers; ++i) {
    st.engine.schedule_after(1 + static_cast<Cycles>(st.lcg.next() % (1u << 16)),
                             [&st] { st.tick(); });
  }
  st.guards.reserve(kGuards);
  for (std::size_t i = 0; i < kGuards; ++i) {
    st.guards.push_back(st.engine.schedule_after(
        (Cycles{1} << 16) + static_cast<Cycles>(st.lcg.next() % (1u << 24)),
        [] {}));
  }
  const double t0 = now_seconds();
  st.engine.run_until(kHorizon);
  const double elapsed = now_seconds() - t0;
  return {"timer_1m", st.engine.dispatched_events(), st.ops, elapsed};
}

/// Min-of-N CPU time over identical deterministic repetitions.
template <typename Fn>
ScenarioResult best_of(int reps, Fn&& fn) {
  ScenarioResult best = fn();
  for (int i = 1; i < reps; ++i) {
    ScenarioResult r = fn();
    if (r.cpu_seconds < best.cpu_seconds) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") json = true;
  }

  constexpr int kReps = 3;
  const ScenarioResult results[] = {
      best_of(kReps, [] { return run_churn(8, 4'000'000); }),
      best_of(kReps, [] { return run_cancel_churn(2'000'000); }),
      best_of(kReps, [] { return run_churn(4096, 2'000'000); }),
      best_of(kReps, [] { return run_schedule_drain(); }),
      best_of(kReps, [] { return run_cancel_heavy(); }),
      best_of(kReps, [] { return run_periodic(); }),
  };
  // The million-timer scenario is kept out of the aggregate so
  // `events_per_sec` stays comparable with historical baselines.
  const ScenarioResult timer = best_of(kReps, [] { return run_timer_heavy(); });
  const double timer_rate =
      static_cast<double>(timer.events) / timer.cpu_seconds;

  std::uint64_t total_events = 0;
  double total_seconds = 0;
  for (const auto& r : results) {
    total_events += r.events;
    total_seconds += r.cpu_seconds;
  }

  if (json) {
    std::ostringstream out;
    nfv::obs::JsonWriter writer(out);
    writer.begin_object();
    writer.field("bench", "micro_engine");
    writer.key("rows");
    writer.begin_array();
    const auto write_row = [&writer](const ScenarioResult& r) {
      writer.begin_object();
      writer.field("scenario", std::string_view(r.name));
      writer.field("events", r.events);
      writer.field("ops", r.ops);
      writer.field("cpu_seconds", r.cpu_seconds);
      writer.field("events_per_sec",
                   static_cast<double>(r.events) / r.cpu_seconds);
      writer.end_object();
    };
    for (const auto& r : results) write_row(r);
    write_row(timer);
    writer.end_array();
    writer.field("total_events", total_events);
    writer.field("total_cpu_seconds", total_seconds);
    writer.field("events_per_sec",
                 static_cast<double>(total_events) / total_seconds);
    writer.field("timer_events_per_sec", timer_rate);
    writer.end_object();
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  std::printf("Engine microbenchmark: raw event throughput\n\n");
  std::printf("%-18s %12s %12s %14s\n", "scenario", "events", "cpu (s)",
              "events/sec");
  for (const auto& r : results) {
    std::printf("%-18s %12llu %12.3f %14.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.cpu_seconds,
                static_cast<double>(r.events) / r.cpu_seconds);
  }
  std::printf("%-18s %12llu %12.3f %14.0f\n", "TOTAL",
              static_cast<unsigned long long>(total_events), total_seconds,
              static_cast<double>(total_events) / total_seconds);
  std::printf("\nMillion-timer scenario (1M pending, schedule/cancel churn):\n");
  std::printf("%-18s %12llu %12.3f %14.0f\n", timer.name.c_str(),
              static_cast<unsigned long long>(timer.events), timer.cpu_seconds,
              timer_rate);
  return 0;
}
