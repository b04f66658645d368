#include "workload/trace_cache.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"

namespace distserve::workload {

namespace {

std::string TableKey(const TraceSpec& spec, const Dataset& dataset) {
  // Hexfloat keeps the key exact: two CVs that differ in the last ulp draw differently.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a|%" PRIu64 "|", spec.burstiness_cv, spec.seed);
  return buf + dataset.identity();
}

}  // namespace

int64_t TraceCache::Table::Grow(int num_requests, const Dataset& dataset) {
  const size_t n = static_cast<size_t>(num_requests);
  const size_t before = draws->size();
  if (before >= n) {
    return 0;
  }
  // The streams continue where the last growth stopped, drawing in GenerateTrace's order.
  auto grown = std::make_shared<std::vector<Draw>>();
  grown->reserve(n);
  grown->assign(draws->begin(), draws->end());
  for (size_t i = grown->size(); i < n; ++i) {
    Draw draw;
    if (i > 0) {
      draw.unit = arrival_rng.GammaUnit(unit_rate.shape(), &draw.post);
    }
    draw.lens = dataset.Sample(length_rng);
    grown->push_back(draw);
  }
  draws = std::move(grown);
  return static_cast<int64_t>(n - before);
}

TraceCache::Table& TraceCache::TableLocked(const std::string& key, const TraceSpec& spec) {
  std::unique_ptr<Table>& table = tables_[key];
  if (table == nullptr) {
    const Rng root(spec.seed);
    table = std::make_unique<Table>(GammaArrivals(1.0, spec.burstiness_cv),
                                    root.Fork(kArrivalStream), root.Fork(kLengthStream));
  }
  return *table;
}

Trace TraceCache::Get(const TraceSpec& spec, const Dataset& dataset, bool* hit) {
  const bool seen = Count(spec, dataset);
  if (hit != nullptr) {
    *hit = seen;
  }
  return Build(spec, dataset);
}

bool TraceCache::Count(const TraceSpec& spec, const Dataset& dataset) {
  DS_CHECK_GT(spec.rate, 0.0);
  const std::string key = TableKey(spec, dataset);
  std::lock_guard<std::mutex> lock(mu_);
  const bool seen = !TableLocked(key, spec).seen.emplace(spec.rate, spec.num_requests).second;
  ++(seen ? stats_.hits : stats_.misses);
  return seen;
}

Trace TraceCache::Build(const TraceSpec& spec, const Dataset& dataset) {
  DS_CHECK_GT(spec.num_requests, 0);  // the rate is checked by GammaArrivals below
  const std::string key = TableKey(spec, dataset);
  std::shared_ptr<const std::vector<Draw>> draws;
  double cv;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Table& table = TableLocked(key, spec);
    stats_.drawn_requests += table.Grow(spec.num_requests, dataset);
    draws = table.draws;
    cv = table.unit_rate.cv();
  }

  // Already-clamped cv: the process validates the rate without repeating the clamp warning.
  const GammaArrivals arrivals(spec.rate, cv);
  const std::vector<Draw>& d = *draws;
  return AssembleTrace(
      spec.num_requests, [&](int i) { return arrivals.GapFromUnit(d[i].unit, d[i].post); },
      [&](int i) { return d[i].lens; });
}

TraceCache::Stats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TraceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();
  stats_ = Stats{};
}

}  // namespace distserve::workload
