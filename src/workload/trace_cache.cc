#include "workload/trace_cache.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"

namespace distserve::workload {

TraceCache::TraceCache(int64_t max_cached_requests)
    : max_cached_requests_(max_cached_requests) {
  DS_CHECK_GT(max_cached_requests, 0);
}

std::string TraceCache::MakeKey(const TraceSpec& spec, const Dataset& dataset) {
  // Hexfloat formatting keeps the key exact: two rates that differ in the last ulp are
  // different generation inputs and must not collide.
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%a|%a|%d|%" PRIu64 "|", spec.rate, spec.burstiness_cv,
                spec.num_requests, spec.seed);
  return std::string(buf) + dataset.identity();
}

std::shared_ptr<const Trace> TraceCache::Get(const TraceSpec& spec, const Dataset& dataset,
                                             bool* hit) {
  const std::string key = MakeKey(spec, dataset);
  std::promise<std::shared_ptr<const Trace>> generated;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (hit != nullptr) {
      *hit = true;
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // move to front
      return it->second->trace;
    }
    auto in_flight = pending_.find(key);
    if (in_flight != pending_.end()) {
      // Another caller is generating this trace: wait for it rather than generate a copy.
      ++stats_.hits;
      const std::shared_future<std::shared_ptr<const Trace>> trace = in_flight->second;
      lock.unlock();
      return trace.get();
    }
    if (hit != nullptr) {
      *hit = false;
    }
    ++stats_.misses;
    pending_.emplace(key, generated.get_future().share());
  }
  // Generate outside the lock: generation dominates, and other keys stay servable meanwhile.
  std::shared_ptr<const Trace> trace;
  try {
    trace = std::make_shared<const Trace>(GenerateTrace(spec, dataset));
  } catch (...) {
    // Hand the failure to the waiters and let the next caller of this key retry.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(key);
    }
    generated.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(key);
    lru_.push_front(Entry{key, trace});
    index_.emplace(key, lru_.begin());
    stats_.cached_requests += static_cast<int64_t>(trace->size());
    stats_.entries = static_cast<int64_t>(lru_.size());
    EvictIfOverBudgetLocked();
  }
  generated.set_value(trace);
  return trace;
}

void TraceCache::EvictIfOverBudgetLocked() {
  // Never evict the sole (possibly over-budget) entry: the freshly inserted trace must stay
  // addressable for its own key.
  while (stats_.cached_requests > max_cached_requests_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.cached_requests -= static_cast<int64_t>(victim.trace->size());
    ++stats_.evictions;
    index_.erase(victim.key);
    lru_.pop_back();
  }
  stats_.entries = static_cast<int64_t>(lru_.size());
}

TraceCache::Stats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TraceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = Stats{};
}

}  // namespace distserve::workload
