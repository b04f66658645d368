// Microbenchmarks of the latency-model hot path.
//
// LatencyModel::FullTime is evaluated millions of times inside the placement search (every
// simulated engine step), so its cost bounds planner latency (Figure 12). These benchmarks
// keep it, and the decode-probe kernel that calls it, honest.
#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/gpu_spec.h"
#include "model/calibration.h"
#include "model/latency_model.h"
#include "placement/fast_sim.h"
#include "placement/goodput.h"
#include "placement/search_context.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/trace_cache.h"

namespace distserve::model {
namespace {

void BM_DecodeStepTime(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {static_cast<int>(state.range(0)), 1},
                        cluster::GpuSpec::A100_80GB());
  int64_t batch = 1;
  for (auto _ : state) {
    batch = batch % 256 + 1;
    benchmark::DoNotOptimize(lm.DecodeStepFullTime(batch, batch * 400));
  }
}
BENCHMARK(BM_DecodeStepTime)->Arg(1)->Arg(4);

void BM_PrefillBatchTime(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt66B(), {4, 2}, cluster::GpuSpec::A100_80GB());
  const std::vector<int> lens = {128, 256, 512, 128};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.PrefillFullTime(lens));
  }
}
BENCHMARK(BM_PrefillBatchTime);

void BM_MixedBatchTime(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  BatchWorkload workload = BatchWorkload::PrefillSingle(512);
  workload += BatchWorkload::Decode(64, 64 * 300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.FullTime(workload));
  }
}
BENCHMARK(BM_MixedBatchTime);

// Batched vs scalar lattice pricing (DESIGN.md §15). The tiered placement search prices whole
// batch lattices through EvaluateBatch; these two benchmarks pin its throughput edge over the
// per-point StageTime()/FullTime() loop it replaces (results are bit-identical — that is
// latency_model_test / tiered_search_test territory; here we only time it). The CI perf gate
// compares the pair.
BatchWorkloadLattice MakeBenchLattice(int n) {
  BatchWorkloadLattice lattice;
  lattice.Reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int batch = 1 + i % 128;
    BatchWorkload point = BatchWorkload::Decode(batch, static_cast<int64_t>(batch) * 300);
    if (i % 4 == 0) {
      point += BatchWorkload::PrefillSingle(64 + (i % 7) * 97);
    }
    lattice.PushBack(point);
  }
  return lattice;
}

void BM_LatticeScalar(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  const BatchWorkloadLattice lattice = MakeBenchLattice(static_cast<int>(state.range(0)));
  std::vector<double> stage(lattice.size());
  std::vector<double> full(lattice.size());
  for (auto _ : state) {
    for (size_t i = 0; i < lattice.size(); ++i) {
      const BatchWorkload point = lattice.At(i);
      stage[i] = lm.StageTime(point);
      full[i] = lm.FullTime(point);
    }
    benchmark::DoNotOptimize(stage.data());
    benchmark::DoNotOptimize(full.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lattice.size()));
}
BENCHMARK(BM_LatticeScalar)->Arg(64)->Arg(1024);

void BM_LatticeBatched(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  const BatchWorkloadLattice lattice = MakeBenchLattice(static_cast<int>(state.range(0)));
  std::vector<double> stage(lattice.size());
  std::vector<double> full(lattice.size());
  for (auto _ : state) {
    lm.EvaluateBatch(lattice, stage, full);
    benchmark::DoNotOptimize(stage.data());
    benchmark::DoNotOptimize(full.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lattice.size()));
}
BENCHMARK(BM_LatticeBatched)->Arg(64)->Arg(1024);

// One loaded decode probe of the placement search (DESIGN.md §15): ShareGPT-like traffic at
// twice a tp1 OPT-13B decode instance's capacity, so admissions cut nearly every run. Arg 0
// is the per-step scalar loop, arg 1 the step-indexed kernel every planner probe uses; their
// TPOTs are bit-identical (tiered_search_test), here we only time them. The CI perf gate
// asserts the kernel beats the loop.
void BM_FastSimDecodeProbe(benchmark::State& state) {
  const LatencyModel lm(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  const int64_t kv_capacity = lm.view().KvCapacityTokens(cluster::GpuSpec::A100_80GB());
  workload::TraceSpec spec;
  spec.rate = 14.0;
  spec.num_requests = 4000;
  spec.seed = 17;
  const workload::Trace trace = workload::GenerateTrace(spec, *workload::MakeShareGptLike());
  std::vector<double> ready;
  ready.reserve(trace.size());
  for (const workload::Request& r : trace) {
    ready.push_back(r.arrival_time);
  }
  const bool step_indexed = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::SimulateDecodeTpots(lm, kv_capacity, trace, ready,
                                                            /*max_batch_size=*/512,
                                                            step_indexed));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_FastSimDecodeProbe)->Arg(0)->Arg(1)->ArgName("step_indexed");

// One whole decode goodput search of the placement planner (DESIGN.md §15): FindMaxRate over
// OPT-13B tp1 at bench fidelity, probe traces served from a warm trace cache. verdict:0 counts
// SLO hits over the full SimulateDecodeTpots vector of every probe; verdict:1 is the planner's
// own search (SimulateDecodeRate), whose probes stop at their verdict. Both return the same
// rate after the same probes (goodput_test); here we only time them. The CI perf gate asserts
// the verdict search beats the full count.
void BM_DecodeRateSearch(benchmark::State& state) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {0.25, 0.1};
  inputs.search.num_requests = 300;
  inputs.search.min_trace_duration = 40.0;
  inputs.search.max_requests = 4000;
  inputs.search.bisection_iters = 7;
  workload::TraceCache cache;
  inputs.search.trace_cache = &cache;
  const ParallelismConfig par{1, 1};
  const LatencyModel lm(inputs.model, par, inputs.cluster.gpu);
  const int64_t kv_capacity = lm.view().KvCapacityTokens(inputs.cluster.gpu);
  auto full_count = [&](const workload::Trace& trace) {
    std::vector<double> ready;
    ready.reserve(trace.size());
    for (const workload::Request& r : trace) {
      ready.push_back(r.arrival_time);
    }
    const std::vector<double> tpots = placement::SimulateDecodeTpots(
        lm, kv_capacity, trace, ready, inputs.decode_max_batch);
    int64_t ok = 0;
    for (const double t : tpots) {
      ok += t <= inputs.slo.tpot ? 1 : 0;
    }
    return static_cast<double>(ok) / static_cast<double>(trace.size());
  };
  const bool verdict = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verdict ? placement::detail::SimulateDecodeRate(inputs, par, inputs.search)
                : placement::FindMaxRate(full_count, *dataset, inputs.search));
  }
}
BENCHMARK(BM_DecodeRateSearch)->Arg(0)->Arg(1)->ArgName("verdict");

void BM_CoefficientFit(benchmark::State& state) {
  const LatencyModel truth(ModelSpec::Opt13B(), {1, 1}, cluster::GpuSpec::A100_80GB());
  Rng rng(1);
  const ProfileSweep sweep = GenerateProfile(truth, rng, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitCoefficients(ModelSpec::Opt13B(), {1, 1}, sweep,
                                             truth.coeffs()));
  }
}
BENCHMARK(BM_CoefficientFit);

}  // namespace
}  // namespace distserve::model

BENCHMARK_MAIN();
