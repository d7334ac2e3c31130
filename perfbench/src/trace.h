// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around calls into the
// program's public functions; nothing inside the program is instrumented.
// Every span has a name (the layer), a start and an end on the steady
// clock, the span that caused it, and the query it belongs to. Spans stay
// in memory until the run ends, then are written as Chrome trace-event
// JSON (readable by Perfetto and chrome://tracing) and folded into a
// per-layer self-time table.
//
// Self time of a span is its duration minus the durations of its children.
// Children of one parent run one after another on one thread, so this is
// the part of the interval the children do not cover. A child may also be
// recorded outside its parent's interval: the storage breakdown re-runs a
// split's storage work after the node executed it, and its spans are
// children of the node's `ocs.exec_plan` span (see replay.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t query = 0;
  uint32_t lane = 0;    // Chrome trace "tid"
  double start_us = 0;  // since the tracer's epoch
  double dur_us = 0;
  // Bench-own work (materializing a breakdown's input) or a stand-in for
  // time another span already measures: shown in the trace, never counted
  // as a layer's self time.
  bool excluded = false;
  std::vector<std::pair<std::string, double>> args;  // counts at this boundary
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  uint64_t NewId() {
    pocs::MutexLock lock(mu_);
    return ++next_id_;
  }

  double SinceEpochUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  void Record(Span span) {
    pocs::MutexLock lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> spans() const {
    pocs::MutexLock lock(mu_);
    return spans_;
  }

 private:
  const Clock::time_point epoch_;
  mutable pocs::Mutex mu_;
  uint64_t next_id_ POCS_GUARDED_BY(mu_) = 0;
  std::vector<Span> spans_ POCS_GUARDED_BY(mu_);
};

// Times one call into a layer. Ends (and records) on destruction or End().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t parent, uint64_t query,
             uint32_t lane)
      : tracer_(tracer) {
    span_.name = std::move(name);
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.query = query;
    span_.lane = lane;
    start_ = Clock::now();  // after NewId: its lock is not the layer's time
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  double start_us() const { return tracer_->SinceEpochUs(start_); }
  void Arg(std::string key, double value) {
    span_.args.emplace_back(std::move(key), value);
  }
  void Exclude() { span_.excluded = true; }

  // Ends the span now; returns its duration in seconds.
  double End() {
    if (!ended_) {
      ended_ = true;
      const Clock::time_point end = Clock::now();
      span_.start_us = tracer_->SinceEpochUs(start_);
      span_.dur_us = tracer_->SinceEpochUs(end) - span_.start_us;
      tracer_->Record(span_);
    }
    return span_.dur_us * 1e-6;
  }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  Span span_;
  bool ended_ = false;
};

// Per layer: summed self time, summed duration and number of spans.
struct LayerTime {
  double self_s = 0;
  double total_s = 0;
  uint64_t spans = 0;
};

// Self time per span name over all spans that are not excluded.
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

// Writes spans as Chrome trace-event JSON ("X" complete events, times in
// microseconds). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path,
                      const std::string& process_name);

}  // namespace perfbench
