#include "baselines/vllm_system.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve::baselines {
namespace {

VllmConfig BasicConfig(int tp = 1, int instances = 1) {
  VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.par = {tp, 1};
  config.num_instances = instances;
  return config;
}

workload::Trace MakeTrace(double rate, int n, uint64_t seed = 1) {
  workload::FixedDataset dataset(256, 32);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

TEST(VllmSystemTest, CompletesAllRequests) {
  VllmSystem system(BasicConfig());
  const metrics::Collector results = system.Run(MakeTrace(2.0, 200));
  ASSERT_EQ(results.count(), 200u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.first_token, r.arrival);
    EXPECT_GE(r.completion, r.first_token);
    // Colocated: no transfer stage.
    EXPECT_DOUBLE_EQ(r.TransferTime(), 0.0);
  }
}

TEST(VllmSystemTest, DeterministicReplay) {
  const workload::Trace trace = MakeTrace(4.0, 300, 9);
  VllmSystem a(BasicConfig());
  VllmSystem b(BasicConfig());
  const metrics::Collector ra = a.Run(trace);
  const metrics::Collector rb = b.Run(trace);
  for (size_t i = 0; i < ra.count(); ++i) {
    EXPECT_DOUBLE_EQ(ra.records()[i].completion, rb.records()[i].completion);
  }
}

TEST(VllmSystemTest, ReplicasImproveAttainment) {
  const workload::Trace trace = MakeTrace(12.0, 400, 5);
  VllmSystem one(BasicConfig(1, 1));
  VllmSystem four(BasicConfig(1, 4));
  const metrics::SloSpec slo{0.2, 0.1};
  const double a1 = one.Run(trace).ComputeAttainment(slo).both;
  const double a4 = four.Run(trace).ComputeAttainment(slo).both;
  EXPECT_GT(a4, a1);
  EXPECT_EQ(four.total_gpus(), 4);
}

TEST(VllmSystemTest, InterferenceShowsInTpotUnderLoad) {
  // At moderate load the colocated system's TPOT degrades much more than its TTFT — the
  // signature of prefill-decoding interference (paper Figure 1/8 behaviour).
  VllmSystem system(BasicConfig());
  const metrics::Collector idle = VllmSystem(BasicConfig()).Run(MakeTrace(0.2, 100, 3));
  const metrics::Collector loaded = system.Run(MakeTrace(6.0, 400, 3));
  EXPECT_GT(loaded.TpotPercentile(90), 2.0 * idle.TpotPercentile(90));
}

TEST(ColocatedGoodputTest, SearchPrefersSomeConfig) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {0.2, 0.1};
  inputs.search.num_requests = 150;
  inputs.search.min_trace_duration = 20.0;
  inputs.search.max_requests = 1000;
  inputs.search.bisection_iters = 5;
  const ColocatedSearchResult best = FindBestColocatedConfig(inputs);
  EXPECT_GT(best.goodput, 0.0);
  EXPECT_GT(best.per_gpu, 0.0);
  EXPECT_EQ(best.par.pp, 1);
  // And the goodput of the chosen tp is at least that of tp=1 per GPU.
  const double tp1 = SimulateColocatedGoodput(inputs, {1, 1});
  EXPECT_GE(best.per_gpu, tp1 * 0.999);
}

TEST(ColocatedGoodputTest, UnfittableConfigScoresZero) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt175B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {4.0, 0.2};
  EXPECT_DOUBLE_EQ(SimulateColocatedGoodput(inputs, {1, 1}), 0.0);
}

TEST(VllmSystemTest, EventQueueHoldsInFlightWorkNotTheTrace) {
  // Arrivals are streamed (Simulator::ScheduleStream): the queue holds the next arrival plus
  // in-flight engine work, never one entry per request of the trace.
  constexpr int kRequests = 20000;
  constexpr size_t kBound = kRequests / 20;
  simcore::Simulator sim;
  VllmConfig config = BasicConfig();
  config.sim = &sim;
  VllmSystem system(config);
  size_t max_pending = 0;
  int64_t samples = 0;
  system.set_on_request_done([&](const engine::RequestState&) {
    max_pending = std::max(max_pending, sim.pending_events());
    ++samples;
  });
  const metrics::Collector results = system.Run(MakeTrace(6.0, kRequests));
  ASSERT_EQ(results.count(), static_cast<size_t>(kRequests));
  EXPECT_EQ(samples, kRequests);
  EXPECT_LT(max_pending, kBound);
}

TEST(VllmSystemDeathTest, PipelineParallelRejected) {
  VllmConfig config = BasicConfig();
  config.par = {1, 2};
  EXPECT_DEATH(VllmSystem{std::move(config)}, "intra-op");
}

}  // namespace
}  // namespace distserve::baselines
