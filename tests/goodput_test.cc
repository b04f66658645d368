#include "placement/goodput.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "placement/algorithms.h"
#include "placement/fast_sim.h"
#include "placement/search_context.h"
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

// Trace-cache hits among a search's probes, counted the way the planner's fold counts them.
int CountHits(workload::TraceCache& cache, const workload::Dataset& dataset,
              const GoodputSearchStats& stats) {
  int hits = 0;
  for (const workload::TraceSpec& spec : stats.probe_specs) {
    hits += cache.Count(spec, dataset) ? 1 : 0;
  }
  return hits;
}

TEST(GoodputTest, TraceCacheDoesNotChangeResultAndHits) {
  workload::FixedDataset dataset(100, 10);
  auto decay = [](const workload::Trace& trace) {
    const double rate = workload::ComputeTraceStats(trace).observed_rate;
    return std::max(0.0, 1.0 - rate / 10.0);
  };
  GoodputSearchStats uncached_stats;
  const double uncached = FindMaxRate(decay, dataset, FastOptions(), &uncached_stats);
  workload::TraceCache cache;
  GoodputSearchOptions options = FastOptions();
  options.trace_cache = &cache;
  GoodputSearchStats first_stats;
  const double first = FindMaxRate(decay, dataset, options, &first_stats);
  GoodputSearchStats second_stats;
  const double second = FindMaxRate(decay, dataset, options, &second_stats);
  EXPECT_DOUBLE_EQ(first, uncached);
  EXPECT_DOUBLE_EQ(second, uncached);
  // Every probe lists its trace spec; the search itself counts nothing.
  ASSERT_EQ(static_cast<int>(first_stats.probe_specs.size()), first_stats.probes);
  EXPECT_EQ(first_stats.probes, uncached_stats.probes);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0);
  // The second search re-visits the exact probe lattice: every trace spec was seen before.
  CountHits(cache, dataset, first_stats);
  EXPECT_EQ(CountHits(cache, dataset, second_stats), second_stats.probes);
}

TEST(GoodputTest, ConcurrentSearchesAttributeOnlyTheirOwnCacheHits) {
  // Planner threads share one trace cache, building probe traces from it concurrently. Each
  // search counts the hits of its own probes, so the per-search counts sum to exactly the
  // cache's global hit count however the threads interleave.
  workload::FixedDataset dataset(100, 10);
  workload::TraceCache cache;
  constexpr int kThreads = 4;
  constexpr int kSearchesPerThread = 6;
  std::vector<GoodputSearchStats> stats(kThreads * kSearchesPerThread);
  std::vector<int> attributed_hits(kThreads * kSearchesPerThread, 0);
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
        const int k = t * kSearchesPerThread + s;
        FindMaxRate(decay, dataset, options, &stats[k]);
        attributed_hits[k] = CountHits(cache, dataset, stats[k]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  int64_t attributed = 0;
  int64_t probes = 0;
  for (size_t k = 0; k < stats.size(); ++k) {
    attributed += attributed_hits[k];
    probes += stats[k].probes;
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

TEST(GoodputDeathTest, TraceSizingBoundsAreChecked) {
  // The probe-trace size is std::clamp(wanted, num_requests, max_requests), which is
  // undefined for num_requests > max_requests; and an empty probe trace measures nothing.
  workload::FixedDataset dataset(100, 10);
  auto always = [](const workload::Trace&) { return 1.0; };
  GoodputSearchOptions inverted = FastOptions();
  inverted.num_requests = 200;
  inverted.max_requests = 100;
  EXPECT_DEATH(FindMaxRate(always, dataset, inverted), "");
  GoodputSearchOptions empty = FastOptions();
  empty.num_requests = 0;
  EXPECT_DEATH(FindMaxRate(always, dataset, empty), "");
}

// Smallest k with double(k)/double(n) >= target (n + 1 when none), found by walking from
// ceil(target * n) rather than by AttainmentVerdict's bisection.
int64_t WalkNeed(int64_t n, double target) {
  const double nd = static_cast<double>(n);
  auto passes = [&](int64_t k) { return static_cast<double>(k) / nd >= target; };
  if (!passes(n)) {
    return n + 1;
  }
  int64_t k = std::clamp<int64_t>(static_cast<int64_t>(std::ceil(target * nd)), 0, n);
  while (k < n && !passes(k)) {
    ++k;
  }
  while (k > 0 && passes(k - 1)) {
    --k;
  }
  return k;
}

// Feeds `ok` hits and n - ok misses (hits first or misses first: the two extreme orders) and
// checks the settled verdict against the exact attainment ok/n. Returns the records fed.
int64_t CheckVerdict(int64_t n, double target, int64_t ok, bool hits_first) {
  AttainmentVerdict verdict(n, /*slo=*/1.0, target);
  int64_t fed = 0;
  bool settled = verdict.settled();
  for (int64_t i = 0; i < n && !settled; ++i, ++fed) {
    const bool hit = hits_first ? i < ok : i >= n - ok;
    settled = verdict.Record(hit ? 0.5 : 2.0);
  }
  EXPECT_TRUE(settled) << "n=" << n << " target=" << target << " ok=" << ok;
  const bool exact = static_cast<double>(ok) / static_cast<double>(n) >= target;
  EXPECT_EQ(verdict.attainment() >= target, exact)
      << "n=" << n << " target=" << target << " ok=" << ok << " hits_first=" << hits_first;
  return fed;
}

TEST(AttainmentVerdictTest, SettledVerdictEqualsExactVerdict) {
  std::vector<int64_t> sizes;
  for (int64_t n = 1; n <= 400; ++n) {
    sizes.push_back(n);
  }
  for (int64_t n = 401; n <= 20'000; n += 151) {
    sizes.push_back(n);
  }
  for (int64_t n : {1500, 19'997, 19'999, 20'000}) {
    sizes.push_back(n);
  }
  for (const int64_t n : sizes) {
    const double nd = static_cast<double>(n);
    std::vector<double> targets = {0.0, 1.0 / 3.0, 0.5, 0.9, 0.99, 1.0};
    for (const int64_t k : {int64_t{1}, n / 3, n / 2, 9 * n / 10, 99 * n / 100, n - 1, n}) {
      const double exact = static_cast<double>(k) / nd;
      targets.push_back(exact);
      targets.push_back(std::nextafter(exact, -1.0));
      targets.push_back(std::nextafter(exact, 2.0));
    }
    for (const double target : targets) {
      const int64_t need = WalkNeed(n, target);
      for (const int64_t ok : {int64_t{0}, need - 1, need, n}) {
        if (ok < 0 || ok > n) {
          continue;
        }
        CheckVerdict(n, target, ok, /*hits_first=*/true);
        CheckVerdict(n, target, ok, /*hits_first=*/false);
      }
      if (need >= 1 && need <= n) {
        // Hits first settles a pass at exactly `need` records; misses first settles a fail
        // at exactly n - need + 1.
        EXPECT_EQ(CheckVerdict(n, target, need, /*hits_first=*/true), need);
        EXPECT_EQ(CheckVerdict(n, target, need - 1, /*hits_first=*/false), n - need + 1);
      }
    }
  }
}

TEST(AttainmentVerdictTest, FullyRecordedIsExactAndEdgesHold) {
  // Recording past the settle point keeps the verdict, and a full record gives exactly ok/n.
  for (const double target : {0.0, 0.5, 0.9, 1.0}) {
    AttainmentVerdict verdict(7, 1.0, target);
    for (int i = 0; i < 7; ++i) {
      verdict.Record(i < 5 ? 1.0 : std::numeric_limits<double>::infinity());
    }
    EXPECT_EQ(verdict.attainment(), 5.0 / 7.0);
  }
  // NaN metrics miss, as `value <= slo` is false for them.
  AttainmentVerdict nan_verdict(2, 1.0, 1.0);
  EXPECT_TRUE(nan_verdict.Record(std::nan("")));
  EXPECT_LT(nan_verdict.attainment(), 1.0);
  // A target no count can reach (> 1 or NaN) fails before any record; 0 passes at once.
  EXPECT_TRUE(AttainmentVerdict(5, 1.0, 1.5).settled());
  EXPECT_LT(AttainmentVerdict(5, 1.0, 1.5).attainment(), 1.5);
  EXPECT_FALSE(AttainmentVerdict(5, 1.0, std::nan("")).attainment() >= std::nan(""));
  EXPECT_TRUE(AttainmentVerdict(5, 1.0, 0.0).settled());
  EXPECT_GE(AttainmentVerdict(5, 1.0, 0.0).attainment(), 0.0);
  // An empty probe reads 0, like the full-count callbacks did.
  EXPECT_EQ(AttainmentVerdict(0, 1.0, 0.9).attainment(), 0.0);
}

// The planner's verdict probes must reproduce a search whose callback counts SLO hits over
// the full per-request result vectors: the same rate, bit for bit, after the same probes.
TEST(VerdictProbeOracleTest, PhaseRatesMatchFullCountSearch) {
  const auto dataset = workload::MakeShareGptLike();
  struct Case {
    model::ModelSpec model;
    model::ParallelismConfig par;
    metrics::SloSpec slo;
  };
  const std::vector<Case> cases = {
      {model::ModelSpec::Opt13B(), {1, 1}, {0.2, 0.1}},
      {model::ModelSpec::Opt13B(), {2, 1}, {0.2, 0.1}},
      {model::ModelSpec::Opt13B(), {1, 2}, {0.25, 0.05}},
      {model::ModelSpec::Opt66B(), {4, 1}, {0.4, 0.1}},
      {model::ModelSpec::Opt66B(), {2, 2}, {0.4, 0.1}},
  };
  for (const Case& c : cases) {
    PlannerInputs inputs;
    inputs.model = c.model;
    inputs.cluster = cluster::ClusterSpec::PaperTestbed();
    inputs.dataset = dataset.get();
    inputs.slo = c.slo;
    const model::LatencyModel lm(inputs.model, c.par, inputs.cluster.gpu);
    const int64_t target_tokens = std::max<int64_t>(512, lm.ComputeSaturationTokens());
    const int64_t kv_capacity = lm.view().KvCapacityTokens(inputs.cluster.gpu);
    for (const uint64_t seed : {uint64_t{3}, uint64_t{1234}, uint64_t{99}}) {
      for (const double target : {0.5, 0.8, 0.9, 0.99}) {
        GoodputSearchOptions search;
        search.attainment_target = target;
        search.seed = seed;
        search.num_requests = 150;
        search.min_trace_duration = 20.0;
        search.max_requests = 1500;
        search.bisection_iters = 6;
        auto full_prefill = [&](const workload::Trace& trace) {
          const std::vector<double> finish =
              SimulatePrefillFinishTimes(lm, trace, target_tokens, detail::kPrefillMaxBatch);
          int64_t ok = 0;
          for (size_t i = 0; i < trace.size(); ++i) {
            ok += finish[i] - trace[i].arrival_time <= inputs.slo.ttft ? 1 : 0;
          }
          return static_cast<double>(ok) / static_cast<double>(trace.size());
        };
        auto full_decode = [&](const workload::Trace& trace) {
          std::vector<double> ready;
          for (const workload::Request& r : trace) {
            ready.push_back(r.arrival_time);
          }
          const std::vector<double> tpots =
              SimulateDecodeTpots(lm, kv_capacity, trace, ready, inputs.decode_max_batch);
          const auto ok = std::count_if(tpots.begin(), tpots.end(),
                                        [&](double t) { return t <= inputs.slo.tpot; });
          return static_cast<double>(ok) / static_cast<double>(trace.size());
        };
        const std::string where = c.model.name + " tp=" + std::to_string(c.par.tp) +
                                  " pp=" + std::to_string(c.par.pp) +
                                  " seed=" + std::to_string(seed) +
                                  " target=" + std::to_string(target);
        GoodputSearchStats oracle_stats;
        GoodputSearchStats verdict_stats;
        EXPECT_EQ(detail::SimulatePrefillRate(inputs, c.par, search, &verdict_stats),
                  FindMaxRate(full_prefill, *dataset, search, &oracle_stats))
            << "prefill " << where;
        EXPECT_EQ(verdict_stats.probes, oracle_stats.probes) << "prefill " << where;
        oracle_stats = {};
        verdict_stats = {};
        EXPECT_EQ(detail::SimulateDecodeRate(inputs, c.par, search, &verdict_stats),
                  FindMaxRate(full_decode, *dataset, search, &oracle_stats))
            << "decode " << where;
        EXPECT_EQ(verdict_stats.probes, oracle_stats.probes) << "decode " << where;
      }
    }
  }
}

}  // namespace
}  // namespace distserve::placement
