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
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    const bool found = it != index_.end();
    if (hit != nullptr) {
      *hit = found;
    }
    if (found) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // move to front
      return it->second->trace;
    }
    ++stats_.misses;
  }
  // Generate outside the lock: generation dominates, and a concurrent duplicate miss
  // produces a bit-identical trace anyway.
  auto trace = std::make_shared<const Trace>(GenerateTrace(spec, dataset));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    return it->second->trace;  // another thread inserted first
  }
  lru_.push_front(Entry{key, trace});
  index_.emplace(key, lru_.begin());
  stats_.cached_requests += static_cast<int64_t>(trace->size());
  stats_.entries = static_cast<int64_t>(lru_.size());
  EvictIfOverBudgetLocked();
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
