// Memoized trace generation for the placement search.
//
// FindMaxRate regenerates a trace for every (rate, seed) probe, and the planner runs that
// search once per candidate configuration — so the exponential-probe lattice rates (and any
// repeated bisection midpoints) are generated dozens of times with identical TraceSpecs.
// TraceCache shares those traces: the key is the full generation input (rate, burstiness,
// request count, seed, dataset identity), so a hit returns a trace bit-identical to what
// GenerateTrace would produce. Entries are LRU-evicted by a request-count budget (traces at
// high probe rates hold up to `max_requests` entries each).
//
// Thread safety: all methods are safe to call concurrently. Misses are single-flight: the
// first caller to miss a key generates its trace outside the lock, and concurrent callers for
// the same key wait for that generation and count as hits. Without evictions the hit and miss
// counts therefore depend only on the keys requested, not on thread timing.
#ifndef DISTSERVE_WORKLOAD_TRACE_CACHE_H_
#define DISTSERVE_WORKLOAD_TRACE_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "workload/generator.h"

namespace distserve::workload {

class TraceCache {
 public:
  // `max_cached_requests` bounds the summed trace lengths kept resident (~48 bytes/request).
  // The default holds roughly one planner invocation's working set at bench fidelity.
  explicit TraceCache(int64_t max_cached_requests = 4'000'000);

  // Returns the trace GenerateTrace(spec, dataset) would produce, generating on miss. The
  // returned trace is shared and immutable; it stays valid after eviction. When `hit` is
  // non-null it reports whether this call was counted in stats().hits — callers sharing the
  // cache across threads must attribute hits through it, not by diffing the global stats.
  std::shared_ptr<const Trace> Get(const TraceSpec& spec, const Dataset& dataset,
                                   bool* hit = nullptr);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t cached_requests = 0;  // current residency, in requests
    int64_t entries = 0;
  };
  Stats stats() const;

  void Clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Trace> trace;
  };
  using LruList = std::list<Entry>;

  static std::string MakeKey(const TraceSpec& spec, const Dataset& dataset);
  void EvictIfOverBudgetLocked();

  const int64_t max_cached_requests_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  // Keys being generated, each with the future its waiting callers block on.
  std::unordered_map<std::string, std::shared_future<std::shared_ptr<const Trace>>> pending_;
  Stats stats_;
};

}  // namespace distserve::workload

#endif  // DISTSERVE_WORKLOAD_TRACE_CACHE_H_
