// Probe traces for the placement search, built from rate-free draws.
//
// FindMaxRate samples a trace at every probe rate, once per candidate configuration. A trace
// at rate r differs from one at any other rate only by a scale on its gaps: lengths come from
// their own RNG stream, and each Gamma gap is Rng::GammaUnit's draws times a scale of 1/rate.
// So TraceCache keeps one table of those draws per (seed, burstiness, dataset identity),
// grown to the largest request count asked for, and Build rescales it into any rate's
// trace, bit-identical to GenerateTrace. A hit means "this exact TraceSpec was counted
// before", so hit and miss counts depend only on the keys counted, never on thread timing.
//
// Thread safety: all methods are safe to call concurrently. One mutex guards the tables and
// seen keys; a table grows under it into a new immutable snapshot, and Build reads the
// snapshot outside it.
#ifndef DISTSERVE_WORKLOAD_TRACE_CACHE_H_
#define DISTSERVE_WORKLOAD_TRACE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workload/generator.h"

namespace distserve::workload {

class TraceCache {
 public:
  // Returns GenerateTrace(spec, dataset), bit for bit, and counts it (Count). When `hit` is
  // non-null it reports whether this call was counted in stats().hits — callers sharing the
  // cache across threads must attribute hits through it, not by diffing the global stats.
  Trace Get(const TraceSpec& spec, const Dataset& dataset, bool* hit = nullptr);

  // Get's two halves, for callers that build traces speculatively and decide later which
  // ones count (the planner's fold): Build returns the trace and counts nothing; Count counts
  // one request for `spec` without building it and returns whether it is a hit.
  Trace Build(const TraceSpec& spec, const Dataset& dataset);
  bool Count(const TraceSpec& spec, const Dataset& dataset);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t drawn_requests = 0;  // requests drawn, summed over the draw tables
  };
  Stats stats() const;

  void Clear();

 private:
  // Draws for request i: the gap before it (unused for i = 0) and its lengths.
  struct Draw {
    double unit = 0.0;
    double post = 1.0;
    LengthSample lens;
  };
  struct Table {
    // Draws up to `num_requests`; returns how many it drew.
    int64_t Grow(int num_requests, const Dataset& dataset);

    GammaArrivals unit_rate;  // fixes the clamped cv and the Gamma shape
    Rng arrival_rng;
    Rng length_rng;
    // Replaced, never mutated, on growth.
    std::shared_ptr<const std::vector<Draw>> draws = std::make_shared<std::vector<Draw>>();
    std::set<std::pair<double, int>> seen;  // (rate, num_requests) counted so far
  };

  Table& TableLocked(const std::string& key, const TraceSpec& spec);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  Stats stats_;
};

}  // namespace distserve::workload

#endif  // DISTSERVE_WORKLOAD_TRACE_CACHE_H_
