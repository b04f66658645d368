#include "workload/trace_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::workload {
namespace {

TraceSpec Spec(double rate, int num_requests = 50, uint64_t seed = 7) {
  TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = num_requests;
  spec.seed = seed;
  return spec;
}

TEST(TraceCacheTest, MissThenHitReturnsSameTrace) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  const auto first = cache.Get(Spec(2.0), dataset);
  const auto second = cache.Get(Spec(2.0), dataset);
  EXPECT_EQ(first.get(), second.get());  // shared, not regenerated
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().entries, 1);
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
  // Misses are single-flight: however the threads interleave, one generates and the rest
  // wait for it and count as hits. The trace is large enough that the threads, released
  // together, overlap its generation.
  FixedDataset dataset(100, 10);
  TraceCache cache;
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const Trace>> traces(kThreads);
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
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.get(), traces[0].get());
  }
  EXPECT_EQ(traces[0]->size(), 200'000u);
}

TEST(TraceCacheTest, CachedTraceBitIdenticalToFreshGeneration) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  const TraceSpec spec = Spec(3.5, 80, 42);
  const auto cached = cache.Get(spec, dataset);
  const Trace fresh = GenerateTrace(spec, dataset);
  ASSERT_EQ(cached->size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ((*cached)[i].id, fresh[i].id);
    EXPECT_EQ((*cached)[i].input_len, fresh[i].input_len);
    EXPECT_EQ((*cached)[i].output_len, fresh[i].output_len);
    EXPECT_DOUBLE_EQ((*cached)[i].arrival_time, fresh[i].arrival_time);
  }
}

TEST(TraceCacheTest, DistinctSpecsAreDistinctEntries) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  cache.Get(Spec(2.0), dataset);
  cache.Get(Spec(4.0), dataset);                     // different rate
  cache.Get(Spec(2.0, 50, 8), dataset);              // different seed
  cache.Get(Spec(2.0, 60), dataset);                 // different size
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(TraceCacheTest, DatasetIdentityDistinguishesSameName) {
  // Two distributions with the same display name must not share cached traces.
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
  const auto ta = cache.Get(Spec(2.0), da);
  const auto tb = cache.Get(Spec(2.0), db);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_NE(ta.get(), tb.get());
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  FixedDataset dataset(100, 10);
  TraceCache cache(/*max_cached_requests=*/100);
  const auto first = cache.Get(Spec(2.0, 60, 1), dataset);
  cache.Get(Spec(2.0, 60, 2), dataset);  // 120 requests resident: evicts seed 1
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_LE(cache.stats().cached_requests, 100);
  // The evicted trace is regenerated on the next request (a miss, not a hit)...
  cache.Get(Spec(2.0, 60, 1), dataset);
  EXPECT_EQ(cache.stats().hits, 0);
  // ...while the shared_ptr handed out earlier stays valid.
  EXPECT_EQ(first->size(), 60u);
}

TEST(TraceCacheTest, OversizedTraceStillCached) {
  // A single trace larger than the whole budget is kept (the budget keeps >= 1 entry);
  // otherwise the planner's highest-rate probe would never hit.
  FixedDataset dataset(100, 10);
  TraceCache cache(/*max_cached_requests=*/10);
  cache.Get(Spec(2.0, 50, 1), dataset);
  EXPECT_EQ(cache.stats().entries, 1);
  cache.Get(Spec(2.0, 50, 1), dataset);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(TraceCacheTest, ClearResetsEverything) {
  FixedDataset dataset(100, 10);
  TraceCache cache;
  cache.Get(Spec(2.0), dataset);
  cache.Get(Spec(2.0), dataset);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().cached_requests, 0);
  cache.Get(Spec(2.0), dataset);
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace distserve::workload
