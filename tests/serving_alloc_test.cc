// Allocation budget of the disaggregated serving path: once a fault-free ServingSystem is
// warm, a request costs one heap allocation, its RequestState. The prefill -> KV pull ->
// decode handoff (link and decode-side callbacks, KV bookkeeping, prefill batches) allocates
// nothing per request. Containers that grow to their peak occupancy (the event slab, KV
// tables, batch vectors, deque chunks) cost a number of allocations that does not grow with
// the trace, so the difference between a run of 2N requests and a run of N requests bounds
// the per-request cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "allocation_counter.h"
#include "serving/serving_system.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::serving {
namespace {

using alloc_counter::AllocationScope;

ServingConfig FleetGroupConfig() {
  ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = 2;
  config.plan.num_decode = 2;
  config.plan.intra_node_transfers = true;
  return config;
}

// Allocations made by one Run over `trace` on a freshly built system.
uint64_t RunAllocations(const workload::Trace& trace, int64_t* completed) {
  ServingSystem system(FleetGroupConfig());
  uint64_t allocations = 0;
  metrics::Collector results;
  {
    AllocationScope scope;
    results = system.Run(trace);
    allocations = scope.count();
  }
  *completed = static_cast<int64_t>(results.count());
  return allocations;
}

TEST(ServingSystemAllocTest, ExtraRequestsCostOneAllocationEach) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds run engine invariant scans that allocate on every event";
#endif
  constexpr size_t kN = 600;
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = 8.0;
  spec.num_requests = 2 * kN;
  spec.seed = 11;
  const workload::Trace doubled = workload::GenerateTrace(spec, *dataset);
  const workload::Trace single(doubled.begin(), doubled.begin() + kN);

  int64_t completed_single = 0;
  int64_t completed_doubled = 0;
  const uint64_t single_allocs = RunAllocations(single, &completed_single);
  const uint64_t doubled_allocs = RunAllocations(doubled, &completed_doubled);
  ASSERT_EQ(completed_single, static_cast<int64_t>(kN));
  ASSERT_EQ(completed_doubled, static_cast<int64_t>(2 * kN));
  ASSERT_GE(doubled_allocs, single_allocs);
  const uint64_t extra = doubled_allocs - single_allocs;
  // One RequestState per request, plus a deque chunk per 64 queue pushes and the odd growth
  // of containers that track in-flight work.
  EXPECT_LE(extra, kN + kN / 8) << single_allocs << " allocations for " << kN
                                << " requests, " << doubled_allocs << " for " << 2 * kN;
  EXPECT_GE(extra, kN) << "each request owns one RequestState";
}

}  // namespace
}  // namespace distserve::serving
