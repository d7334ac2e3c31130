#include "connectors/ocs/split_dispatcher.h"

namespace pocs::connectors {

namespace {

std::string NodeMetric(size_t node, const char* suffix) {
  return "dispatch.node" + std::to_string(node) + "." + suffix;
}

}  // namespace

SplitDispatcher::SplitDispatcher(SplitDispatcherConfig config,
                                 size_t num_nodes)
    : config_(config), num_nodes_(num_nodes == 0 ? 1 : num_nodes) {
  auto& reg = metrics::Registry::Default();
  node_plans_.reserve(num_nodes_);
  for (size_t i = 0; i < num_nodes_; ++i) {
    node_plans_.push_back(&reg.GetCounter(NodeMetric(i, "plans")));
  }
  MutexLock lock(mu_);
  inflight_plans_.assign(num_nodes_, 0);
  inflight_bytes_.assign(num_nodes_, 0);
  local_plans_.assign(num_nodes_, 0);
}

SplitDispatcher::Lease SplitDispatcher::Dispatch(int node) {
  auto& reg = metrics::Registry::Default();
  static auto& unrouted = reg.GetCounter("dispatch.plans_unrouted");
  if (node < 0 || static_cast<size_t>(node) >= num_nodes_) {
    // Placement unknown (Locate failed / degraded) — dispatch untracked
    // rather than charge the wrong node.
    unrouted.Increment();
    return Lease(nullptr, -1);
  }
  const size_t n = static_cast<size_t>(node);
  {
    MutexLock lock(mu_);
    while ((config_.max_inflight_per_node > 0 &&
            inflight_plans_[n] >= config_.max_inflight_per_node) ||
           (config_.max_inflight_bytes_per_node > 0 &&
            inflight_bytes_[n] >= config_.max_inflight_bytes_per_node)) {
      cv_.wait(lock.native());
    }
    inflight_plans_[n] += 1;
    local_plans_[n] += 1;
  }
  node_plans_[n]->Increment();
  return Lease(this, node);
}

void SplitDispatcher::Lease::AddBytes(uint64_t bytes) {
  if (dispatcher_ == nullptr || node_ < 0) return;
  bytes_ += bytes;
  MutexLock lock(dispatcher_->mu_);
  dispatcher_->inflight_bytes_[static_cast<size_t>(node_)] += bytes;
}

void SplitDispatcher::Lease::Reset() {
  if (dispatcher_ != nullptr) {
    dispatcher_->Release(node_, bytes_);
    dispatcher_ = nullptr;
  }
}

void SplitDispatcher::Release(int node, uint64_t bytes) {
  if (node < 0 || static_cast<size_t>(node) >= num_nodes_) return;
  const size_t n = static_cast<size_t>(node);
  {
    MutexLock lock(mu_);
    inflight_plans_[n] -= 1;
    inflight_bytes_[n] -= bytes;
  }
  cv_.notify_all();
}

std::vector<uint64_t> SplitDispatcher::NodePlanCounts() const {
  MutexLock lock(mu_);
  return local_plans_;
}

}  // namespace pocs::connectors
