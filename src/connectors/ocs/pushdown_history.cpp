#include "connectors/ocs/pushdown_history.h"

namespace pocs::connectors {

void PushdownHistory::QueryCompleted(const connector::QueryEvent& event) {
  MutexLock lock(mu_);
  events_.push_back(event);
  while (events_.size() > window_) events_.pop_front();
  Recompute();
}

void PushdownHistory::Recompute() {
  per_kind_.clear();
  total_bytes_ = 0;
  for (const auto& event : events_) {
    for (const auto& decision : event.stats.pushdown_decisions) {
      PushdownKindStats& stats = per_kind_[decision.kind];
      ++stats.offered;
      if (decision.accepted) ++stats.accepted;
    }
    total_bytes_ += static_cast<double>(event.stats.bytes_from_storage);
  }
}

void PushdownHistory::RecordOffloadRejection(const std::string& connector_id,
                                             const std::string& object,
                                             const Status& cause) {
  MutexLock lock(mu_);
  rejections_.push_back(
      {connector_id, object, cause.code(), cause.message()});
  while (rejections_.size() > window_) rejections_.pop_front();
  ++total_rejections_;
}

std::vector<OffloadRejection> PushdownHistory::offload_rejections() const {
  MutexLock lock(mu_);
  return {rejections_.begin(), rejections_.end()};
}

uint64_t PushdownHistory::total_offload_rejections() const {
  MutexLock lock(mu_);
  return total_rejections_;
}

PushdownKindStats PushdownHistory::StatsFor(
    connector::PushedOperator::Kind kind) const {
  MutexLock lock(mu_);
  auto it = per_kind_.find(kind);
  return it == per_kind_.end() ? PushdownKindStats{} : it->second;
}

double PushdownHistory::AverageBytesFromStorage() const {
  MutexLock lock(mu_);
  return events_.empty() ? 0.0 : total_bytes_ / events_.size();
}

size_t PushdownHistory::window_size() const {
  MutexLock lock(mu_);
  return events_.size();
}

std::vector<connector::QueryEvent> PushdownHistory::Snapshot() const {
  MutexLock lock(mu_);
  return {events_.begin(), events_.end()};
}

}  // namespace pocs::connectors
