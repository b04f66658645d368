// Scheduling-policy showdown: the §2.2 design space on one workload.
//
// Four ways to serve the same ShareGPT-like traffic on two A100s:
//   1. vLLM-style colocated, prefill-priority (prefill iterations stall decodes);
//   2. Orca-style colocated, mixed batching (prefill and decode share a step);
//   3. SARATHI-style colocated, chunked prefill piggybacked on decodes;
//   4. DistServe: disaggregated prefill + decode instance.
// Prints TTFT/TPOT percentiles and SLO attainment for each, making the §2.2 trade-offs
// concrete: chunking trades TTFT for TPOT; mixing trades both; disaggregation decouples them.
#include <cstdio>

#include "baselines/vllm_system.h"
#include "serving/serving_system.h"
#include "workload/generator.h"

int main() {
  using namespace distserve;
  using SchedulingMode = engine::ColocatedInstance::Options::SchedulingMode;

  const model::ModelSpec model = model::ModelSpec::Opt13B();
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const metrics::SloSpec slo{0.2, 0.1};

  const auto dataset = workload::MakeShareGptLike();
  workload::TraceSpec spec;
  spec.rate = 24.0;  // 3 req/s per GPU on 8 GPUs: hot enough that scheduling policy matters
  spec.num_requests = 4000;
  spec.seed = 55;
  const workload::Trace trace = workload::GenerateTrace(spec, *dataset);

  std::printf("Workload: %s at %.1f req/s on 8 GPUs | SLO: TTFT<=%.2fs TPOT<=%.2fs\n\n",
              dataset->name().c_str(), spec.rate, slo.ttft, slo.tpot);
  std::printf("%-22s %10s %10s %10s %10s %12s\n", "policy", "TTFT p50", "TTFT p90",
              "TPOT p50", "TPOT p90", "attainment");

  auto report = [&](const char* name, const metrics::Collector& results) {
    std::printf("%-22s %8.0fms %8.0fms %8.1fms %8.1fms %11.1f%%\n", name,
                1e3 * results.TtftPercentile(50), 1e3 * results.TtftPercentile(90),
                1e3 * results.TpotPercentile(50), 1e3 * results.TpotPercentile(90),
                100.0 * results.ComputeAttainment(slo).both);
  };

  auto run_colocated = [&](SchedulingMode mode) {
    baselines::VllmConfig config;
    config.model = model;
    config.cluster = cluster;
    config.par = {1, 1};
    config.num_instances = 8;
    config.engine_options.mode = mode;
    config.engine_options.chunk_budget = 256;
    baselines::VllmSystem system(std::move(config));
    return system.Run(trace);
  };

  report("vLLM (prefill-prio)", run_colocated(SchedulingMode::kPrefillPriority));
  report("Orca (mixed batch)", run_colocated(SchedulingMode::kMixed));
  report("SARATHI (chunked)", run_colocated(SchedulingMode::kChunked));

  serving::ServingConfig ds_config;
  ds_config.model = model;
  ds_config.cluster = cluster;
  ds_config.plan.prefill_par = {1, 1};
  ds_config.plan.decode_par = {1, 1};
  ds_config.plan.num_prefill = 3;
  ds_config.plan.num_decode = 5;
  ds_config.plan.intra_node_transfers = true;
  serving::ServingSystem distserve_system(ds_config);
  report("DistServe (3P+5D)", distserve_system.Run(trace));

  std::printf(
      "\nReading the table: prefill-priority favours TTFT at TPOT's expense; chunking does\n"
      "the opposite; mixed batching sits between. Disaggregation decouples the two metrics\n"
      "and lets the prefill:decode GPU ratio be chosen per workload (§2.2, §3).\n");
  return 0;
}
