#include "engine/admission.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"

namespace pocs::engine {

namespace {

metrics::Registry& Reg() { return metrics::Registry::Default(); }

void BumpTenantCounter(const std::string& tenant, const char* event) {
  Reg().GetCounter("admission.tenant." + tenant + "." + event).Increment();
}

}  // namespace

// ---------------------------------------------------------------------------
// AdmissionTicket

AdmissionTicket::~AdmissionTicket() { Release(); }

void AdmissionTicket::Wait() { controller_->WaitForGrant(this); }

void AdmissionTicket::Release() { controller_->ReleaseSlot(this); }

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(std::move(config)) {
  MutexLock lock(mu_);
  for (const ResourceGroupConfig& g : config_.groups) {
    groups_[g.name].config = g;
  }
}

AdmissionController::Group& AdmissionController::GroupFor(
    const std::string& tenant) {
  auto [it, inserted] = groups_.try_emplace(tenant);
  if (inserted) {
    it->second.config = config_.defaults;
    it->second.config.name = tenant;
  }
  return it->second;
}

Result<std::shared_ptr<AdmissionTicket>> AdmissionController::Enqueue(
    const std::string& tenant) {
  // Declared before the lock scope so grant-path queue references are
  // destroyed only after mu_ is released (see GrantEligibleLocked).
  std::vector<std::shared_ptr<AdmissionTicket>> deferred;
  std::shared_ptr<AdmissionTicket> ticket;
  {
    MutexLock lock(mu_);
    Group& group = GroupFor(tenant);
    if (group.config.max_queued > 0 &&
        group.waiting.size() >= group.config.max_queued) {
      ++group.rejected_total;
      BumpTenantCounter(tenant, "rejected");
      return Status::Unavailable("admission queue full for tenant '" + tenant +
                                 "' (max_queued=" +
                                 std::to_string(group.config.max_queued) + ")");
    }
    // make_shared cannot reach the private constructor.
    ticket = std::shared_ptr<AdmissionTicket>(
        new AdmissionTicket(this, tenant));  // pocs-lint: allow(naked-new)
    granted_[ticket.get()] = false;
    group.waiting.push_back(ticket);
    ++group.queued_total;
    ++waiting_total_;
    BumpTenantCounter(tenant, "queued");
    GrantEligibleLocked(&deferred);
  }
  return ticket;
}

void AdmissionController::SetPaused(bool paused) {
  std::vector<std::shared_ptr<AdmissionTicket>> deferred;
  MutexLock lock(mu_);
  paused_ = paused;
  if (!paused_) GrantEligibleLocked(&deferred);
}

void AdmissionController::GrantEligibleLocked(
    std::vector<std::shared_ptr<AdmissionTicket>>* deferred) {
  if (paused_) return;
  while (config_.max_concurrent == 0 ||
         running_total_ < config_.max_concurrent) {
    // Weighted fair pick: among groups with waiting work and headroom,
    // the smallest virtual service admitted/weight wins; strict `<` on a
    // name-ordered map breaks ties toward the lexicographically first
    // group. Each grant is a pure function of the grant history, so the
    // grant sequence is schedule-deterministic.
    Group* best = nullptr;
    double best_virtual = std::numeric_limits<double>::infinity();
    for (auto& [name, group] : groups_) {
      if (group.waiting.empty()) continue;
      if (group.config.max_concurrent > 0 &&
          group.running >= group.config.max_concurrent) {
        continue;
      }
      const double virt = static_cast<double>(group.admitted_total) /
                          static_cast<double>(std::max(1u, group.config.weight));
      if (virt < best_virtual) {
        best_virtual = virt;
        best = &group;
      }
    }
    if (best == nullptr) break;

    deferred->push_back(std::move(best->waiting.front()));
    const std::shared_ptr<AdmissionTicket>& ticket = deferred->back();
    best->waiting.pop_front();
    --waiting_total_;
    ++best->running;
    ++best->admitted_total;
    ++running_total_;
    const double waited = ticket->wait_timer_.ElapsedSeconds();
    granted_[ticket.get()] = true;
    ticket->queue_wait_seconds_.store(waited, std::memory_order_relaxed);
    BumpTenantCounter(ticket->tenant_, "admitted");
    Reg()
        .GetHistogram("admission.tenant." + ticket->tenant_ +
                      ".queue_wait_seconds")
        .Record(waited);
    ticket->granted_cv_.notify_all();
  }
}

void AdmissionController::WaitForGrant(AdmissionTicket* ticket) {
  MutexLock lock(mu_);
  // Explicit predicate loop (not the lambda-predicate overload): the
  // analysis treats mu_ as held across the wait, matching reality. A
  // ticket absent from granted_ was already released — don't block.
  while (true) {
    auto it = granted_.find(ticket);
    if (it == granted_.end() || it->second) return;
    ticket->granted_cv_.wait(lock.native());
  }
}

void AdmissionController::ReleaseSlot(AdmissionTicket* ticket) {
  std::vector<std::shared_ptr<AdmissionTicket>> deferred;
  MutexLock lock(mu_);
  auto it = granted_.find(ticket);
  if (it == granted_.end()) return;  // already released (idempotent)
  const bool was_granted = it->second;
  granted_.erase(it);
  Group& group = GroupFor(ticket->tenant_);
  if (was_granted) {
    --group.running;
    --running_total_;
  } else {
    // Abandoned before grant: drop it from the wait queue (its reference
    // parks in `deferred` so it outlives the critical section).
    auto& q = group.waiting;
    for (auto qit = q.begin(); qit != q.end(); ++qit) {
      if (qit->get() == ticket) {
        deferred.push_back(std::move(*qit));
        q.erase(qit);
        --waiting_total_;
        break;
      }
    }
    ticket->granted_cv_.notify_all();
  }
  GrantEligibleLocked(&deferred);
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  MutexLock lock(mu_);
  Snapshot snap;
  snap.running = running_total_;
  snap.waiting = waiting_total_;
  for (const auto& [name, group] : groups_) {
    GroupSnapshot gs;
    gs.tenant = name;
    gs.queued = group.queued_total;
    gs.admitted = group.admitted_total;
    gs.rejected = group.rejected_total;
    gs.running = group.running;
    gs.waiting = static_cast<uint32_t>(group.waiting.size());
    snap.queued += gs.queued;
    snap.admitted += gs.admitted;
    snap.rejected += gs.rejected;
    snap.groups.push_back(std::move(gs));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// SplitThrottle

SplitThrottle::Permit SplitThrottle::Acquire() {
  if (max_inflight_ == 0) return Permit(nullptr);
  MutexLock lock(mu_);
  while (inflight_ >= max_inflight_) cv_.wait(lock.native());
  ++inflight_;
  return Permit(this);
}

void SplitThrottle::Release() {
  {
    MutexLock lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

void SplitThrottle::Permit::Reset() {
  if (throttle_ != nullptr) {
    throttle_->Release();
    throttle_ = nullptr;
  }
}

}  // namespace pocs::engine
