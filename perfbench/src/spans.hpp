// Benchmark-side spans: wall-clock intervals around the benchmark's own
// calls into the simulator's public API and around each layer probe.
// Spans stay in memory and are written out once, when the benchmark exits.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< Seconds since the recorder was created.
    double end_s = 0.0;
    std::int64_t parent = -1;  ///< Index of the enclosing span, -1 at top.
  };

  /// `run_id` is shared by every span of one benchmark run.
  explicit SpanRecorder(std::uint64_t run_id)
      : run_id_(run_id), origin_(Clock::now()) {}

  /// Open a span nested in the innermost open one; returns its index.
  std::size_t begin(std::string name) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Close the innermost open span; returns its duration in seconds.
  double end() {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_s = now_s();
    return span.end_s - span.start_s;
  }

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object: {"run_id":..., "spans":[{name,start_s,end_s,parent}]}.
  void write_json(std::ostream& out) const {
    nfv::obs::JsonWriter w(out);
    w.begin_object();
    w.field("run_id", run_id_);
    w.key("spans");
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", std::string_view(s.name));
      w.field("start_s", s.start_s);
      w.field("end_s", s.end_s);
      w.field("parent", s.parent);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name) : rec_(rec) {
    rec_.begin(std::move(name));
  }
  ~ScopedSpan() { rec_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

}  // namespace perfbench
