#include "common/metrics.h"

#include "common/check.h"

namespace pocs::metrics {

void Histogram::Record(double seconds) {
  uint64_t nanos = 0;  // negative/NaN clamp to zero
  if (seconds > 0) {
    const double n = seconds * 1e9;
    nanos = n >= 9.2e18 ? UINT64_MAX : static_cast<uint64_t>(n);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

double Histogram::mean_seconds() const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
         1e-9 / static_cast<double>(n);
}

Counter& Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (!e.counter) {
    POCS_CHECK(!e.histogram)
        << "metric '" << name << "' already registered as a histogram";
    e.kind = MetricKind::kCounter;
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (!e.histogram) {
    POCS_CHECK(!e.counter)
        << "metric '" << name << "' already registered as a counter";
    e.kind = MetricKind::kHistogram;
    e.histogram = std::make_unique<Histogram>();
  }
  return *e.histogram;
}

std::vector<MetricSample> Registry::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    if (e.kind == MetricKind::kCounter) {
      s.value = e.counter->value();
    } else {
      s.value = e.histogram->count();
      s.mean = e.histogram->mean_seconds();
    }
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted
}

Registry& Registry::Default() {
  // Leaked on purpose: metric references cached in function-local statics
  // at call sites must outlive every other static destructor.
  // NOLINTNEXTLINE(cppcoreguidelines-owning-memory)
  static Registry* registry = new Registry();  // pocs-lint: allow(naked-new)
  return *registry;
}

}  // namespace pocs::metrics
