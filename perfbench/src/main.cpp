// nfv_perfbench: times one benchmark workload through the public
// Simulation API and prints raw measurements as JSON lines. perfbench/run.py
// builds this binary, runs it, checks the reports it writes and turns the
// measurements into the benchmark's metrics.
//
//   nfv_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 (timed runs): repeat {construct, topology, lazy start, one
//   run_for_seconds call, report_json} until S wall seconds have passed
//   (at least three repetitions). One "rep" line per repetition.
// --trace 1 (traced run): repeat rounds of an untraced repetition, a
//   repetition with benchmark spans around every public call and the run
//   sliced into 1-simulated-ms run_for_seconds calls, and a repetition with
//   a TraceRecorder attached; sharded workloads add a sim_shards=1 and a
//   legacy-path repetition. Then the layer probes. One "round" line per
//   round and one "probes" line; the spans go to DIR as JSON at exit.
//
// Every repetition's report_json() is written to DIR for the checks.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr int kMinReps = 3;
constexpr double kSliceSeconds = 0.001;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the next read
/// is this repetition's own peak. False where the kernel refuses.
bool reset_peak_rss() {
  const int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = write(fd, "5", 1) == 1;
  close(fd);
  return ok;
}

/// Peak resident set (VmHWM) in KiB; 0 if unreadable.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = find_workload(value);
      if (args.workload == nullptr) return false;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return false;
      args.trace = v == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds > 0.0 &&
         !args.out_dir.empty() && argc % 2 == 1;
}

struct RepOptions {
  int shards = -1;         ///< -1 = the workload's own execution path.
  bool slice = false;      ///< Advance in 1-simulated-ms calls.
  bool recorder = false;   ///< Attach a TraceRecorder for the run.
  SpanRecorder* spans = nullptr;  ///< Record spans around public calls.
};

struct RepResult {
  double construct_s = 0.0;
  double topology_s = 0.0;
  double start_s = 0.0;
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double report_s = 0.0;
  double sim_ms = 0.0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t trace_events = 0;  ///< Recorded plus past-cap events.
  std::vector<double> slice_us;
  std::vector<double> pending_depth;  ///< Legacy engine depth per slice.
  std::size_t flow_table_size = 0;    ///< Legacy path only.
  std::string report;
  // Sizes the layer probes take from the run.
  std::size_t lanes = 0;
  std::size_t workers = 0;
  std::size_t nfs_per_core = 0;
  bool cfs_batch = true;
  std::uint32_t burst = 0;
  std::int64_t epoch_cycles = 0;  ///< Lane epoch (cross-lane latency).
};

/// Time `fn`, inside a span named `name` when `spans` is set.
template <typename F>
double timed(SpanRecorder* spans, const char* name, F&& fn) {
  if (spans != nullptr) spans->begin(name);
  const double t0 = wall_seconds();
  fn();
  const double dt = wall_seconds() - t0;
  if (spans != nullptr) spans->end();
  return dt;
}

RepResult run_rep(const Workload& w, std::uint64_t seed,
                  const RepOptions& opt) {
  RepResult r;
  // Declared before the simulation, which records into it until destroyed.
  nfv::obs::TraceRecorder recorder;
  Instance inst;
  SpanRecorder* sp = opt.spans;
  if (sp != nullptr) sp->begin("rep");
  r.construct_s = timed(sp, "Simulation::Simulation",
                        [&] { construct(w, inst, opt.shards); });
  nfv::core::Simulation& sim = *inst.sim;
  r.topology_s = timed(sp, "topology",
                       [&] { build_topology(w, seed, inst); });
  r.lanes = inst.lanes;
  r.workers = inst.workers;
  r.nfs_per_core = inst.max_nfs_per_core;
  r.cfs_batch = inst.cfs_batch;
  r.burst = sim.config().nf_burst_window;
  r.epoch_cycles = sim.config().cross_lane_latency;
  if (opt.recorder) sim.attach_trace(recorder);
  // The first run call performs the lazy start (manager threads, sources,
  // lane runtimes and executor threads); a zero-length call isolates it.
  r.start_s =
      timed(sp, "run_for_seconds(0)", [&] { sim.run_for_seconds(0.0); });

  const double cpu0 = cpu_seconds();
  const double wall0 = wall_seconds();
  if (opt.slice) {
    if (sp != nullptr) sp->begin("run");
    const auto slices =
        static_cast<long>(w.rep_sim_seconds / kSliceSeconds + 0.5);
    for (long i = 0; i < slices; ++i) {
      r.slice_us.push_back(1e6 * timed(sp, "run_for_seconds(0.001)", [&] {
        sim.run_for_seconds(kSliceSeconds);
      }));
      if (!sim.sharded()) {
        r.pending_depth.push_back(
            static_cast<double>(sim.engine().pending_events()));
      }
    }
    if (sp != nullptr) sp->end();
  } else {
    sim.run_for_seconds(w.rep_sim_seconds);
  }
  r.run_wall_s = wall_seconds() - wall0;
  r.run_cpu_s = cpu_seconds() - cpu0;
  r.sim_ms = sim.now_seconds() * 1e3;
  r.report_s = timed(sp, "report_json", [&] { r.report = sim.report_json(); });
  r.peak_rss_kb = peak_rss_kb();
  if (opt.recorder) {
    r.trace_events = recorder.events().size() + recorder.dropped_events();
  }
  if (!sim.sharded()) r.flow_table_size = sim.flow_table().size();
  if (sp != nullptr) sp->end();
  return r;
}

std::string report_path(const Args& a, const char* tag, int index) {
  return a.out_dir + "/" + a.workload->name + "-seed" + std::to_string(a.seed) +
         "-" + tag + "-" + std::to_string(index) + ".json";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

/// Timing fields of one repetition; writes its report to `path`.
void write_rep(nfv::obs::JsonWriter& w, const RepResult& r,
               const std::string& path) {
  write_file(path, r.report);
  w.begin_object();
  w.field("construct_s", r.construct_s);
  w.field("topology_s", r.topology_s);
  w.field("start_s", r.start_s);
  w.field("setup_s", r.construct_s + r.topology_s + r.start_s);
  w.field("run_wall_s", r.run_wall_s);
  w.field("run_cpu_s", r.run_cpu_s);
  w.field("report_s", r.report_s);
  w.field("sim_ms", r.sim_ms);
  w.field("peak_rss_kb", r.peak_rss_kb);
  w.field("trace_events", r.trace_events);
  w.field("report", std::string_view(path));
  w.end_object();
}

void emit(const std::ostringstream& line) {
  std::cout << line.str() << '\n' << std::flush;
}

void print_build_info(const Args& a, bool rss_reset) {
  std::ostringstream line;
  nfv::obs::JsonWriter w(line);
  const bool sanitized = sanitizer_build();
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  w.begin_object();
  w.field("kind", "build");
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", __VERSION__);
  w.field("sanitizer", sanitized);
  w.field("asserts", asserts);
  w.field("comparable", std::string_view(PERFBENCH_BUILD_TYPE) == "Release" &&
                            !sanitized && !asserts);
  w.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("workload", a.workload->name);
  w.field("seed", a.seed);
  w.field("sharded", a.workload->sharded);
  w.field("shards", a.workload->sharded ? default_shards() : 0u);
  w.field("rep_sim_seconds", a.workload->rep_sim_seconds);
  w.field("rss_reset", rss_reset);
  w.end_object();
  emit(line);
}

int timed_runs(const Args& a) {
  const double deadline = wall_seconds() + a.seconds;
  for (int i = 0; i < kMinReps || wall_seconds() < deadline; ++i) {
    reset_peak_rss();
    RepResult r = run_rep(*a.workload, a.seed, {});
    std::ostringstream line;
    nfv::obs::JsonWriter w(line);
    w.begin_object();
    w.field("kind", "rep");
    w.key("rep");
    write_rep(w, r, report_path(a, "rep", i));
    w.end_object();
    emit(line);
  }
  return 0;
}

/// Nearest-rank q-quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

int traced_runs(const Args& a) {
  const Workload& wl = *a.workload;
  SpanRecorder spans(std::hash<std::string>{}(
      std::string(wl.name) + "/" + std::to_string(a.seed) + "/" +
      std::to_string(wall_seconds())));
  const double deadline = wall_seconds() + a.seconds;
  ProbeSizes sizes;
  std::int64_t epoch_cycles = 0;
  std::vector<double> depths;
  for (int round = 0; round == 0 || wall_seconds() < deadline; ++round) {
    spans.begin("round");
    const RepResult plain = run_rep(wl, a.seed, {});
    RepOptions traced_opt;
    traced_opt.slice = true;
    traced_opt.spans = &spans;
    const RepResult traced = run_rep(wl, a.seed, traced_opt);
    RepOptions rec_opt;
    rec_opt.recorder = true;
    const RepResult rec = run_rep(wl, a.seed, rec_opt);

    std::ostringstream line;
    nfv::obs::JsonWriter w(line);
    w.begin_object();
    w.field("kind", "round");
    w.key("untraced");
    write_rep(w, plain, report_path(a, "untraced", round));
    w.key("traced");
    write_rep(w, traced, report_path(a, "traced", round));
    w.field("slice_us_p50", quantile(traced.slice_us, 0.5));
    w.field("slice_us_p99", quantile(traced.slice_us, 0.99));
    w.key("recorder");
    write_rep(w, rec, report_path(a, "recorder", round));
    sizes.nfs_per_core = plain.nfs_per_core;
    sizes.cfs_batch = plain.cfs_batch;
    sizes.burst = plain.burst;
    epoch_cycles = plain.epoch_cycles;
    if (wl.sharded) {
      sizes.lanes = plain.lanes;
      sizes.workers = plain.workers;
      RepOptions one;
      one.shards = 1;
      const RepResult s1 = run_rep(wl, a.seed, one);
      w.key("shards1");
      write_rep(w, s1, report_path(a, "shards1", round));
      // The same topology on the legacy path: its single engine's depth,
      // spread over the lanes, sizes the dispatch probe.
      RepOptions legacy;
      legacy.shards = 0;
      legacy.slice = true;
      const RepResult lg = run_rep(wl, a.seed, legacy);
      w.key("legacy");
      write_rep(w, lg, report_path(a, "legacy", round));
      depths.push_back(quantile(lg.pending_depth, 0.5) /
                       static_cast<double>(plain.lanes));
      sizes.flow_table_size = lg.flow_table_size;
    } else {
      depths.push_back(quantile(traced.pending_depth, 0.5));
      sizes.flow_table_size = traced.flow_table_size;
    }
    w.end_object();
    emit(line);
    spans.end();
  }
  sizes.pending_depth =
      static_cast<std::size_t>(quantile(depths, 0.5) + 0.5);
  const ProbeResult p = run_probes(sizes, spans);

  std::ostringstream line;
  nfv::obs::JsonWriter w(line);
  w.begin_object();
  w.field("kind", "probes");
  w.field("pending_depth", static_cast<std::uint64_t>(sizes.pending_depth));
  w.field("nfs_per_core", static_cast<std::uint64_t>(sizes.nfs_per_core));
  w.field("burst", static_cast<std::uint64_t>(sizes.burst));
  w.field("flow_table_size", static_cast<std::uint64_t>(sizes.flow_table_size));
  w.field("lanes", static_cast<std::uint64_t>(sizes.lanes));
  w.field("workers", static_cast<std::uint64_t>(sizes.workers));
  w.field("epoch_cycles", epoch_cycles);
  w.field("dispatch_ns", p.dispatch_ns);
  w.field("pick_ns", p.pick_ns);
  w.field("ring_burst_ns", p.ring_burst_ns);
  w.field("mbuf_burst_ns", p.mbuf_burst_ns);
  w.field("lookup_ns", p.lookup_ns);
  w.field("latency_record_ns", p.latency_record_ns);
  w.field("barrier_us", p.barrier_us);
  w.end_object();
  emit(line);

  std::ostringstream dump;
  spans.write_json(dump);
  write_file(a.out_dir + "/spans-" + wl.name + "-seed" +
                 std::to_string(a.seed) + ".json",
             dump.str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin what runs: the workloads set the shard count and the engine
  // backend explicitly, and these overrides must not leak in either.
  for (const char* var : {"NFV_SIM_SHARDS", "NFV_ENGINE_BACKEND",
                          "NFV_BENCH_SCALE", "NFV_BENCH_WORKERS"}) {
    unsetenv(var);
  }
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: nfv_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n");
    return 2;
  }
  perfbench::print_build_info(args, perfbench::reset_peak_rss());
  return args.trace ? perfbench::traced_runs(args)
                    : perfbench::timed_runs(args);
}
