#include "workload/trace_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::workload {
namespace {

TraceSpec Spec(double rate, int num_requests = 50, uint64_t seed = 7, double cv = 1.0) {
  TraceSpec spec;
  spec.rate = rate;
  spec.burstiness_cv = cv;
  spec.num_requests = num_requests;
  spec.seed = seed;
  return spec;
}

// Bit-for-bit trace equality (arrival times compared by representation, not by ==).
::testing::AssertionResult SameTrace(const Trace& got, const Trace& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].id != want[i].id || got[i].input_len != want[i].input_len ||
        got[i].output_len != want[i].output_len ||
        std::bit_cast<uint64_t>(got[i].arrival_time) !=
            std::bit_cast<uint64_t>(want[i].arrival_time)) {
      return ::testing::AssertionFailure()
             << "request " << i << ": arrival " << got[i].arrival_time << " vs "
             << want[i].arrival_time << ", lens " << got[i].input_len << "/"
             << got[i].output_len << " vs " << want[i].input_len << "/" << want[i].output_len;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(TraceCacheTest, MissThenHitReturnsSameTrace) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  const Trace first = cache.Get(Spec(2.0), dataset);
  const Trace second = cache.Get(Spec(2.0), dataset);
  EXPECT_TRUE(SameTrace(second, first));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().drawn_requests, 50);
}

TEST(TraceCacheTest, GetReportsWhetherThisCallHit) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  bool hit = true;
  cache.Get(Spec(2.0), dataset, &hit);
  EXPECT_FALSE(hit);
  cache.Get(Spec(2.0), dataset, &hit);
  EXPECT_TRUE(hit);
  cache.Get(Spec(3.0), dataset, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(TraceCacheTest, ConcurrentMissesOnOneKeyGenerateOnce) {
  // However the threads interleave, the first to reach the key is its one miss and draws the
  // table once; the rest count as hits and build the same trace from the same draws.
  FixedDataset dataset(100, 10);
  TraceCache cache;
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<Trace> traces(kThreads);
  std::vector<char> hits(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      bool hit = false;
      traces[t] = cache.Get(Spec(2.0, 200'000), dataset, &hit);
      hits[t] = hit ? 1 : 0;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, kThreads - 1);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), kThreads - 1);
  EXPECT_EQ(cache.stats().drawn_requests, 200'000);
  for (const Trace& trace : traces) {
    EXPECT_TRUE(SameTrace(trace, traces[0]));
  }
  EXPECT_TRUE(SameTrace(traces[0], GenerateTrace(Spec(2.0, 200'000), dataset)));
}

TEST(TraceCacheTest, CachedTraceBitIdenticalToFreshGeneration) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  const TraceSpec spec = Spec(3.5, 80, 42);
  EXPECT_TRUE(SameTrace(cache.Get(spec, dataset), GenerateTrace(spec, dataset)));
  EXPECT_TRUE(SameTrace(cache.Get(spec, dataset), GenerateTrace(spec, dataset)));
}

TEST(TraceCacheTest, GetEqualsGenerateTraceAcrossRatesSizesAndShapes) {
  // Property: every trace built from the draw tables equals GenerateTrace bit for bit — over
  // Gamma shapes above, at and below 1 (the < 1 branch carries a post factor), the probe
  // lattice and bisection midpoints between its points, request counts that grow and shrink
  // between calls on one table, every dataset kind (the lognormal one keeps a cached
  // Box–Muller value across growths) and two seeds.
  const std::unique_ptr<Dataset> lognormal = MakeShareGptLike();
  const EmpiricalDataset empirical("observed", {{12, 3}, {700, 40}, {64, 1}, {2048, 256}});
  const FixedDataset fixed(100, 10);
  const std::vector<const Dataset*> datasets = {lognormal.get(), &empirical, &fixed};
  std::vector<double> rates;
  for (int k = 0; k <= 16; ++k) {
    rates.push_back(0.37 * std::ldexp(1.0, k));
  }
  for (size_t k = 0; k + 1 < rates.size(); k += 3) {
    rates.push_back(0.5 * (rates[k] + rates[k + 1]));  // bisection midpoint
    rates.push_back(rates[k] + 0.75 * (rates[k + 1] - rates[k]));
  }
  rates.push_back(0.02);
  rates.push_back(1e5);
  const std::vector<int> sizes = {400, 1, 1500, 90, 3000, 400, 2999, 3000};
  for (const double cv : {1.0 / 64.0, 0.5, 1.0, 2.0, 64.0}) {
    for (const Dataset* dataset : datasets) {
      for (const uint64_t seed : {uint64_t{1234}, uint64_t{99}}) {
        TraceCache cache;
        int max_n = 0;
        for (size_t r = 0; r < rates.size(); ++r) {
          const int n = sizes[r % sizes.size()];
          max_n = std::max(max_n, n);
          const TraceSpec spec = Spec(rates[r], n, seed, cv);
          EXPECT_TRUE(SameTrace(cache.Get(spec, *dataset), GenerateTrace(spec, *dataset)))
              << "cv=" << cv << " dataset=" << dataset->identity() << " seed=" << seed
              << " rate=" << rates[r] << " n=" << n;
        }
        // One table, drawn exactly to the largest request count asked for.
        EXPECT_EQ(cache.stats().drawn_requests, max_n);
        EXPECT_EQ(cache.stats().misses, static_cast<int64_t>(rates.size()));
      }
    }
  }
}

TEST(TraceCacheTest, ConcurrentMixedSizesCountKeysNotTiming) {
  // Four threads request overlapping mixes of rates and sizes from one table, which grows
  // under them. Each trace equals GenerateTrace; the miss count is the number of distinct
  // keys, the hit count the number of repeats, and the per-call hit flags sum to the hits —
  // whichever thread happened to reach a key or grow the table first.
  const std::unique_ptr<Dataset> dataset = MakeShareGptLike();
  constexpr int kThreads = 4;
  std::vector<std::vector<TraceSpec>> work(kThreads);
  std::set<std::pair<double, int>> distinct;
  int probes = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 24; ++i) {
      const double rate = 0.5 * std::ldexp(1.0, (i + t) % 9) + (i % 4 == 3 ? 0.25 * t : 0.0);
      const int n = 100 + 400 * ((i * 7 + t) % 10);
      work[t].push_back(Spec(rate, n, 5));
      distinct.emplace(rate, n);
      ++probes;
    }
  }
  TraceCache cache;
  std::latch start(kThreads);
  std::vector<int> hits(kThreads, 0);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const TraceSpec& spec : work[t]) {
        bool hit = false;
        const Trace trace = cache.Get(spec, *dataset, &hit);
        hits[t] += hit ? 1 : 0;
        mismatches[t] += SameTrace(trace, GenerateTrace(spec, *dataset)) ? 0 : 1;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const TraceCache::Stats stats = cache.stats();
  EXPECT_EQ(std::accumulate(mismatches.begin(), mismatches.end(), 0), 0);
  EXPECT_EQ(stats.hits + stats.misses, probes);
  EXPECT_EQ(stats.misses, static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(stats.hits, probes - static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), int64_t{0}), stats.hits);
  EXPECT_EQ(stats.drawn_requests, 100 + 400 * 9);  // one table, drawn once
}

TEST(TraceCacheTest, DistinctSpecsAreDistinctEntries) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  cache.Get(Spec(2.0), dataset);
  cache.Get(Spec(4.0), dataset);         // different rate
  cache.Get(Spec(2.0, 50, 8), dataset);  // different seed
  cache.Get(Spec(2.0, 60), dataset);     // different size
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(cache.stats().hits, 0);
  // Rate and size share a seed's draws; only the seed needs a second table.
  EXPECT_EQ(cache.stats().drawn_requests, 50 + 10 + 50);
}

TEST(TraceCacheTest, DatasetIdentityDistinguishesSameName) {
  // Two distributions with the same display name must not share draws.
  LognormalDataset::Params a;
  a.name = "synthetic";
  a.input_mu = 5.0;
  LognormalDataset::Params b = a;
  b.input_mu = 6.0;
  const LognormalDataset da(a);
  const LognormalDataset db(b);
  ASSERT_EQ(da.name(), db.name());
  ASSERT_NE(da.identity(), db.identity());
  TraceCache cache;
  const Trace ta = cache.Get(Spec(2.0), da);
  const Trace tb = cache.Get(Spec(2.0), db);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().drawn_requests, 100);  // two tables
  EXPECT_TRUE(SameTrace(ta, GenerateTrace(Spec(2.0), da)));
  EXPECT_TRUE(SameTrace(tb, GenerateTrace(Spec(2.0), db)));
}

TEST(TraceCacheTest, BuildAndCountSplitGet) {
  // Build draws and builds but counts nothing; Count counts but neither draws nor builds.
  // Together they account exactly like Get.
  FixedDataset dataset(100, 10);
  TraceCache cache;
  EXPECT_TRUE(
      SameTrace(cache.Build(Spec(2.0, 70), dataset), GenerateTrace(Spec(2.0, 70), dataset)));
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().drawn_requests, 70);
  EXPECT_FALSE(cache.Count(Spec(2.0, 70), dataset));
  EXPECT_TRUE(cache.Count(Spec(2.0, 70), dataset));
  EXPECT_FALSE(cache.Count(Spec(2.0, 500), dataset));
  EXPECT_EQ(cache.stats().drawn_requests, 70);
  bool hit = false;
  cache.Get(Spec(2.0, 500), dataset, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(TraceCacheTest, ClearResetsEverything) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  cache.Get(Spec(2.0), dataset);
  cache.Get(Spec(2.0), dataset);
  cache.Clear();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().drawn_requests, 0);
  // The seen keys go too: the same spec misses again, and is drawn afresh.
  EXPECT_TRUE(SameTrace(cache.Get(Spec(2.0), dataset), GenerateTrace(Spec(2.0), dataset)));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().drawn_requests, 50);
}

}  // namespace
}  // namespace distserve::workload
