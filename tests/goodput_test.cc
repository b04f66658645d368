#include "placement/goodput.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "workload/dataset.h"

namespace distserve::placement {
namespace {

GoodputSearchOptions FastOptions() {
  GoodputSearchOptions options;
  options.num_requests = 100;
  options.min_trace_duration = 0.0;
  options.max_requests = 100;
  options.bisection_iters = 20;
  return options;
}

TEST(GoodputTest, RecoversAnalyticThreshold) {
  // Synthetic attainment: passes iff observed trace rate <= 5 rps.
  workload::FixedDataset dataset(100, 10);
  auto attainment = [](const workload::Trace& trace) {
    const workload::TraceStats stats = workload::ComputeTraceStats(trace);
    return stats.observed_rate <= 5.0 ? 1.0 : 0.0;
  };
  const double rate = FindMaxRate(attainment, dataset, FastOptions());
  EXPECT_NEAR(rate, 5.0, 0.5);
}

TEST(GoodputTest, HopelessConfigReturnsZero) {
  workload::FixedDataset dataset(100, 10);
  auto never = [](const workload::Trace&) { return 0.0; };
  EXPECT_DOUBLE_EQ(FindMaxRate(never, dataset, FastOptions()), 0.0);
}

TEST(GoodputTest, AlwaysPassingCapsOut) {
  workload::FixedDataset dataset(100, 10);
  auto always = [](const workload::Trace&) { return 1.0; };
  EXPECT_GT(FindMaxRate(always, dataset, FastOptions()), 1e4);
}

TEST(GoodputTest, AttainmentTargetMatters) {
  // Attainment decays smoothly with rate: a = max(0, 1 - rate/10).
  workload::FixedDataset dataset(100, 10);
  auto decay = [](const workload::Trace& trace) {
    const double rate = workload::ComputeTraceStats(trace).observed_rate;
    return std::max(0.0, 1.0 - rate / 10.0);
  };
  GoodputSearchOptions strict = FastOptions();
  strict.attainment_target = 0.9;
  GoodputSearchOptions loose = FastOptions();
  loose.attainment_target = 0.5;
  const double strict_rate = FindMaxRate(decay, dataset, strict);
  const double loose_rate = FindMaxRate(decay, dataset, loose);
  EXPECT_LT(strict_rate, loose_rate);
  EXPECT_NEAR(strict_rate, 1.0, 0.5);
  EXPECT_NEAR(loose_rate, 5.0, 1.0);
}

TEST(GoodputTest, WarmStartMatchesColdSearch) {
  // Attainment decays monotonically with rate, so a hinted search must land on exactly the
  // cold search's answer no matter how wrong the hint is — it only changes the probe count.
  workload::FixedDataset dataset(100, 10);
  auto decay = [](const workload::Trace& trace) {
    const double rate = workload::ComputeTraceStats(trace).observed_rate;
    return std::max(0.0, 1.0 - rate / 10.0);
  };
  GoodputSearchStats cold_stats;
  const double cold = FindMaxRate(decay, dataset, FastOptions(), &cold_stats);
  for (const double hint : {0.05, 0.4, 1.0, cold, 3.0 * cold, 40.0, 900.0}) {
    GoodputSearchOptions options = FastOptions();
    options.rate_hint = hint;
    GoodputSearchStats warm_stats;
    const double warm = FindMaxRate(decay, dataset, options, &warm_stats);
    EXPECT_DOUBLE_EQ(warm, cold) << "hint=" << hint;
    EXPECT_GT(warm_stats.probes, 0);
  }
  // An accurate hint may not probe more than the cold search does.
  GoodputSearchOptions accurate = FastOptions();
  accurate.rate_hint = cold;
  GoodputSearchStats accurate_stats;
  FindMaxRate(decay, dataset, accurate, &accurate_stats);
  EXPECT_LE(accurate_stats.probes, cold_stats.probes);
}

TEST(GoodputTest, WarmStartHopelessStillZero) {
  workload::FixedDataset dataset(100, 10);
  auto never = [](const workload::Trace&) { return 0.0; };
  GoodputSearchOptions options = FastOptions();
  options.rate_hint = 12.0;
  EXPECT_DOUBLE_EQ(FindMaxRate(never, dataset, options), 0.0);
}

TEST(GoodputTest, WarmStartAlwaysPassingCapsOut) {
  workload::FixedDataset dataset(100, 10);
  auto always = [](const workload::Trace&) { return 1.0; };
  GoodputSearchOptions options = FastOptions();
  options.rate_hint = 2.0;
  EXPECT_GT(FindMaxRate(always, dataset, options), 1e4);
}

TEST(GoodputTest, TraceCacheDoesNotChangeResultAndHits) {
  workload::FixedDataset dataset(100, 10);
  auto decay = [](const workload::Trace& trace) {
    const double rate = workload::ComputeTraceStats(trace).observed_rate;
    return std::max(0.0, 1.0 - rate / 10.0);
  };
  const double uncached = FindMaxRate(decay, dataset, FastOptions());
  workload::TraceCache cache;
  GoodputSearchOptions options = FastOptions();
  options.trace_cache = &cache;
  const double first = FindMaxRate(decay, dataset, options);
  GoodputSearchStats second_stats;
  const double second = FindMaxRate(decay, dataset, options, &second_stats);
  EXPECT_DOUBLE_EQ(first, uncached);
  EXPECT_DOUBLE_EQ(second, uncached);
  // The second search re-visits the exact probe lattice: every trace comes from the cache.
  EXPECT_EQ(second_stats.trace_cache_hits, second_stats.probes);
}

TEST(GoodputTest, ConcurrentSearchesAttributeOnlyTheirOwnCacheHits) {
  // Planner threads share one trace cache. Each search must count the hits its own probes
  // got, so the per-search counts sum to exactly the cache's global hit count however the
  // threads interleave.
  workload::FixedDataset dataset(100, 10);
  workload::TraceCache cache;
  constexpr int kThreads = 4;
  constexpr int kSearchesPerThread = 6;
  std::vector<GoodputSearchStats> stats(kThreads * kSearchesPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kSearchesPerThread; ++s) {
        // Different knees share the low end of the probe lattice and part of the bisection.
        const double knee = 4.0 + (t * kSearchesPerThread + s) % 5;
        auto decay = [knee](const workload::Trace& trace) {
          const double rate = workload::ComputeTraceStats(trace).observed_rate;
          return std::max(0.0, 1.0 - rate / (2.0 * knee));
        };
        GoodputSearchOptions options = FastOptions();
        options.trace_cache = &cache;
        FindMaxRate(decay, dataset, options, &stats[t * kSearchesPerThread + s]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  int64_t attributed = 0;
  int64_t probes = 0;
  for (const GoodputSearchStats& s : stats) {
    attributed += s.trace_cache_hits;
    probes += s.probes;
  }
  const workload::TraceCache::Stats cache_stats = cache.stats();
  EXPECT_GT(cache_stats.hits, 0);
  EXPECT_EQ(attributed, cache_stats.hits);
  EXPECT_EQ(probes, cache_stats.hits + cache_stats.misses);
}

TEST(GoodputTest, TraceSizeScalesWithRate) {
  workload::FixedDataset dataset(100, 10);
  GoodputSearchOptions options;
  options.num_requests = 50;
  options.min_trace_duration = 10.0;
  options.max_requests = 500;
  int max_seen = 0;
  auto spy = [&](const workload::Trace& trace) {
    max_seen = std::max(max_seen, static_cast<int>(trace.size()));
    return workload::ComputeTraceStats(trace).observed_rate <= 20.0 ? 1.0 : 0.0;
  };
  FindMaxRate(spy, dataset, options);
  // Probes above 5 rps must have generated more than the 50-request floor.
  EXPECT_GT(max_seen, 100);
  EXPECT_LE(max_seen, 500);
}

}  // namespace
}  // namespace distserve::placement
