// fig_scenarios (extension beyond the paper's exhibits): when does disaggregation win?
//
// The paper's Figure 8 compares DistServe against colocated vLLM on single-tenant Poisson
// traffic with cold KV caches — the regime most favourable to disaggregation. "Beyond the
// Buzz" and LLMServingSim 2.0 (PAPERS.md) argue the answer changes under realistic traffic:
// shared-system-prompt prefix caching shrinks prefill work (weakening the interference that
// motivates disaggregation), Sarathi-style chunked prefill bounds interference without paying
// the transfer/queueing costs of two pools, and multi-tenant traffic with abandonment shifts
// the metric to per-class goodput. This bench sweeps exactly that grid:
//
//   {DistServe 2P+2D, vLLM-colocated, chunked-prefill colocated}
//     x prefix-cache hit rate {0, 0.3, 0.7}
//     x {single-tenant, multi-tenant (priority classes + cancels + deadlines)}
//
// on equal GPU counts, and reports joint SLO attainment, goodput, per-class attainment, and
// the cancelled/timed-out/preempted outcome counters. A planner-fidelity search section
// reports the per-GPU goodput each family achieves with its knobs tuned (Algorithm 2 for
// disaggregation, tp search for vLLM++, tp x chunk-budget search for chunked).
//
// The exit code asserts the headline findings so CI gates on them:
//   CHUNKED-CLOSES-GAP:  the disagg-minus-chunked attainment gap at hit 0.7 is no larger
//                        than at hit 0 (single-tenant arm);
//   DISAGG-WINS-COLD:    with cold caches (hit 0) under a 2x-tightened TTFT SLO, disagg
//                        attains at least as much as both colocated families;
//   PRIORITY-PROTECTS:   in every multi-tenant cell, the high-priority class attains at
//                        least as much as the same requests do in a counterfactual run of
//                        the identical annotated trace with priorities stripped (priority
//                        scheduling + preemption must never leave the interactive class
//                        worse off than undifferentiated mixing).
// Invariants whose cells are excluded by a flag-restricted grid print SKIP and do not fail.
//
// Flags: --smoke (reduced trace for CI), --json=PATH (artifact), --trace=PATH (per-request
// spans including the preempt/cancel/timeout span kinds), --goodput-cache=PATH (persist the
// search section's planner simulations; cache accounting stays JSON-only so warm and cold
// stdout are byte-identical), --jobs=N (grid cells fan out across workers; stdout is
// byte-identical at any N), and the scenario knobs:
//   --prefix-hit=F     restrict the hit-rate axis to {F}
//   --chunk-budget=N   per-step token budget of the chunked system (default 512)
//   --tenants=F        restrict the tenant axis to {F} (0 = single-tenant only; F > 0 = one
//                      multi-tenant arm with high-priority fraction F)
// Every knob has a default that reproduces the default grid, and two runs with the same
// flags must be byte-identical on stdout (the determinism CI job diffs double runs, job
// counts, and cache modes for each knob).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "workload/scenario.h"

namespace distserve::bench {
namespace {

enum class System { kDisagg = 0, kVllm = 1, kChunked = 2 };

const char* SystemName(System s) {
  switch (s) {
    case System::kDisagg:
      return "disagg";
    case System::kVllm:
      return "vllm";
    case System::kChunked:
      return "chunked";
  }
  return "?";
}

struct Cell {
  double hit = 0.0;          // prefix-cache hit rate
  double tenant_frac = 0.0;  // high-priority fraction; 0 = single-tenant
  System system = System::kDisagg;
};

struct CellResult {
  Cell cell;
  metrics::Attainment attainment;       // all requests
  metrics::Attainment tight;            // TTFT SLO halved (the DISAGG-WINS-COLD view)
  metrics::Attainment high;             // priority-1 requests only (multi cells)
  metrics::Attainment low;              // priority-0 requests only
  double high_mixed = 0.0;              // the hi-class ids' attainment with priorities
                                        // stripped (the PRIORITY-PROTECTS counterfactual)
  double goodput = 0.0;                 // req/s within both SLOs
  metrics::ScenarioOutcomeStats stats;  // cancelled / timed-out / preempted
  workload::ScenarioStats trace_stats;  // what the scenario passes annotated
};

// Joint-SLO attainment of a fixed id set, with never-completed members in the denominator —
// how the multi-tenant cells score the same requests across the priority-on and
// priorities-stripped runs.
double AttainmentForIds(const metrics::Collector& results, const std::vector<char>& in_set,
                        const metrics::SloSpec& slo) {
  auto member = [&in_set](workload::RequestId id) {
    return id >= 0 && static_cast<size_t>(id) < in_set.size() && in_set[id] != 0;
  };
  int64_t total = 0;
  int64_t both = 0;
  for (const metrics::RequestRecord& r : results.records()) {
    if (!member(r.id)) {
      continue;
    }
    ++total;
    if (r.Ttft() <= slo.ttft && r.Tpot() <= slo.tpot) {
      ++both;
    }
  }
  for (const auto* failed :
       {&results.lost_records(), &results.cancelled_records(), &results.timed_out_records()}) {
    for (const metrics::RequestRecord& r : *failed) {
      if (member(r.id)) {
        ++total;
      }
    }
  }
  return total > 0 ? static_cast<double>(both) / static_cast<double>(total) : 0.0;
}

// Fixed 4-GPU deployments (the fig13 fault-sweep topology for DistServe; both colocated
// families replicate tp=1 to the same GPU count) so every cell compares equal silicon.
serving::ServingConfig DisaggConfig(const Application& app, const cluster::ClusterSpec& cluster) {
  serving::ServingConfig config;
  config.model = app.model;
  config.cluster = cluster;
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = 2;
  config.plan.num_decode = 2;
  config.plan.intra_node_transfers = true;
  return config;
}

metrics::Collector RunCell(const Application& app, const cluster::ClusterSpec& cluster,
                           const workload::Trace& trace, System system, int64_t chunk_budget,
                           trace::Recorder* recorder) {
  switch (system) {
    case System::kDisagg: {
      serving::ServingConfig config = DisaggConfig(app, cluster);
      config.recorder = recorder;
      serving::ServingSystem sys(std::move(config));
      return sys.Run(trace);
    }
    case System::kVllm:
      return MakeVllmRunner(app.model, cluster, /*tp=*/1, /*num_instances=*/4, {},
                            recorder)(trace);
    case System::kChunked: {
      engine::ColocatedInstance::Options options;
      options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
      options.chunk_budget = chunk_budget;
      return MakeVllmRunner(app.model, cluster, /*tp=*/1, /*num_instances=*/4, options,
                            recorder)(trace);
    }
  }
  return {};
}

// Annotates a copy of the base trace for one grid cell. The scenario passes draw from RNG
// streams disjoint from the generator's, so every cell sees the same arrivals and lengths.
workload::Trace AnnotateTrace(const workload::Trace& base, const Cell& cell, uint64_t seed,
                              double timeout) {
  workload::Trace trace = base;
  if (cell.hit > 0.0) {
    workload::PrefixCacheSpec prefix;
    prefix.hit_rate = cell.hit;
    prefix.prefix_len = 256;
    prefix.seed = seed;
    workload::ApplyPrefixCache(&trace, prefix);
  }
  if (cell.tenant_frac > 0.0) {
    workload::TenantSpec tenants;
    tenants.high_priority_fraction = cell.tenant_frac;
    tenants.seed = seed;
    workload::ApplyTenantClasses(&trace, tenants);
    workload::CancellationSpec cancels;
    cancels.cancel_rate = 0.05;
    cancels.cancel_after_mean = 2.0;
    cancels.timeout = timeout;
    cancels.seed = seed;
    workload::ApplyCancellations(&trace, cancels);
  }
  return trace;
}

// Planner-fidelity per-GPU goodput search for each family (the "tuned knobs" view that the
// grid's fixed deployments cannot give). Prints values only — planner cost accounting and
// cache hits stay in the JSON artifact so warm-cache stdout is byte-identical to cold.
void RunSearchSection(const Application& app, const cluster::ClusterSpec& cluster, bool smoke,
                      placement::GoodputCache* goodput_cache, PlannerAccounting* accounting,
                      std::string* json) {
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  placement::PlannerInputs inputs = MakePlannerInputs(app, cluster, dataset.get(), 4.0);
  inputs.goodput_cache = goodput_cache;
  if (smoke) {
    inputs.search.num_requests = 150;
    inputs.search.min_trace_duration = 20.0;
    inputs.search.max_requests = 1500;
    inputs.search.bisection_iters = 5;
  }
  std::printf("\n-- per-GPU goodput with tuned knobs (planner fidelity, hit=0) --\n");
  const placement::PlannerResult planned = placement::LowNodeAffinityPlacement(inputs);
  accounting->Add(planned);
  std::printf("  disagg  plan=%s per-gpu=%.3f\n", planned.plan.ToString().c_str(),
              planned.plan.per_gpu_goodput());
  const baselines::ColocatedSearchResult vllm = baselines::FindBestColocatedConfig(inputs);
  std::printf("  vllm++  tp=%d per-gpu=%.3f\n", vllm.par.tp, vllm.per_gpu);
  const baselines::ChunkedSearchResult chunked = baselines::FindBestChunkedConfig(inputs);
  std::printf("  chunked tp=%d budget=%lld per-gpu=%.3f\n", chunked.par.tp,
              static_cast<long long>(chunked.chunk_budget), chunked.per_gpu);
  char line[256];
  std::snprintf(line, sizeof line,
                "  \"search\": {\"disagg_per_gpu\": %.6f, \"vllm_per_gpu\": %.6f, "
                "\"chunked_per_gpu\": %.6f, \"chunked_budget\": %lld},\n",
                planned.plan.per_gpu_goodput(), vllm.per_gpu, chunked.per_gpu,
                static_cast<long long>(chunked.chunk_budget));
  json->append(line);
}

const CellResult* FindCell(const std::vector<CellResult>& results, double hit,
                           double tenant_frac, System system) {
  for (const CellResult& r : results) {
    if (r.cell.hit == hit && r.cell.tenant_frac == tenant_frac && r.cell.system == system) {
      return &r;
    }
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const WallTimer timer;
  CommonFlags flags;
  if (!ParseCommonFlags(argc, argv,
                        kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagTrace | kFlagJobs |
                            kFlagPrefixHit | kFlagChunkBudget | kFlagTenants,
                        &flags)) {
    return 2;
  }
  const bool smoke = flags.smoke;
  const int64_t chunk_budget = flags.chunk_budget > 0 ? flags.chunk_budget : 512;
  if (!flags.trace_path.empty() && !trace::kCompiledIn) {
    std::fprintf(stderr,
                 "warning: built with -DDISTSERVE_TRACE=OFF; no spans will be exported\n");
  }
  trace::Recorder recorder;
  trace::Recorder* rec = flags.trace_path.empty() ? nullptr : &recorder;
  // A shared recorder would interleave spans from concurrent cells; tracing stays serial.
  const std::unique_ptr<ThreadPool> pool_owner =
      rec == nullptr ? MakeSweepPool(flags.jobs) : nullptr;
  ThreadPool* pool = pool_owner.get();

  const Application app = ChatbotOpt13B();
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  workload::TraceSpec spec;
  spec.rate = 9.0;
  spec.num_requests = smoke ? 400 : 2000;
  spec.seed = 137;
  const workload::Trace base_trace = workload::GenerateTrace(spec, *dataset);
  const double timeout = 20.0;  // completion deadline in the multi-tenant arm

  // The grid axes; a scenario flag restricts its axis to the given value.
  std::vector<double> hits = {0.0, 0.3, 0.7};
  if (flags.prefix_hit >= 0.0) {
    hits = {flags.prefix_hit};
  }
  std::vector<double> tenant_fracs = {0.0, 0.25};
  if (flags.tenants >= 0.0) {
    tenant_fracs = {flags.tenants};
  }
  const System systems[] = {System::kDisagg, System::kVllm, System::kChunked};

  std::vector<Cell> cells;
  for (double hit : hits) {
    for (double frac : tenant_fracs) {
      for (System system : systems) {
        cells.push_back({hit, frac, system});
      }
    }
  }

  std::printf(
      "fig_scenarios: prefix caching x tenancy x scheduler (chatbot-13b, 4 GPUs each, "
      "%d requests, chunk budget %lld)\n",
      static_cast<int>(base_trace.size()), static_cast<long long>(chunk_budget));
  std::printf("%-5s %-8s %-8s %8s %8s %8s %9s %7s %8s %8s %8s %8s\n", "hit", "tenants",
              "system", "both", "ttft", "tpot", "goodput", "cancel", "timeout", "preempt",
              "hi-both", "lo-both");

  // Every cell is an independent simulation; fan them across the sweep driver and print rows
  // afterward in grid order so stdout is byte-identical at any --jobs value.
  std::vector<std::function<CellResult()>> tasks;
  tasks.reserve(cells.size());
  for (const Cell& cell : cells) {
    tasks.push_back([&app, &cluster, &base_trace, &spec, cell, chunk_budget, timeout, rec] {
      const workload::Trace trace = AnnotateTrace(base_trace, cell, spec.seed, timeout);
      const metrics::Collector results =
          RunCell(app, cluster, trace, cell.system, chunk_budget, rec);
      CellResult out;
      out.cell = cell;
      out.attainment = results.ComputeAttainment(app.slo);
      out.tight = results.ComputeAttainment({app.slo.ttft * 0.5, app.slo.tpot});
      out.high = results.ComputeAttainmentForPriority(app.slo, 1);
      out.low = results.ComputeAttainmentForPriority(app.slo, 0);
      out.goodput = results.GoodputUnderSlo(app.slo);
      out.stats = results.scenario_stats();
      out.trace_stats = workload::ComputeScenarioStats(trace);
      if (cell.tenant_frac > 0.0) {
        // Counterfactual: the identical traffic (hits, cancels, deadlines) with priorities
        // stripped — what the high-priority requests attain under undifferentiated mixing.
        std::vector<char> is_high;
        workload::Trace mixed = trace;
        for (workload::Request& r : mixed) {
          if (r.id >= 0 && static_cast<size_t>(r.id) >= is_high.size()) {
            is_high.resize(static_cast<size_t>(r.id) + 1, 0);
          }
          if (r.priority != 0 && r.id >= 0) {
            is_high[r.id] = 1;
          }
          r.priority = 0;
        }
        const metrics::Collector mixed_results =
            RunCell(app, cluster, mixed, cell.system, chunk_budget, rec);
        out.high_mixed = AttainmentForIds(mixed_results, is_high, app.slo);
      }
      return out;
    });
  }
  const std::vector<CellResult> results =
      placement::RunSweepTasks<CellResult>(pool, std::move(tasks));

  for (const CellResult& r : results) {
    char hi[16];
    char lo[16];
    if (r.cell.tenant_frac > 0.0) {
      std::snprintf(hi, sizeof hi, "%7.1f%%", 100.0 * r.high.both);
      std::snprintf(lo, sizeof lo, "%7.1f%%", 100.0 * r.low.both);
    } else {
      std::snprintf(hi, sizeof hi, "%8s", "-");
      std::snprintf(lo, sizeof lo, "%8s", "-");
    }
    std::printf("%-5.2f %-8.2f %-8s %7.1f%% %7.1f%% %7.1f%% %9.3f %7lld %8lld %8lld %s %s\n",
                r.cell.hit, r.cell.tenant_frac, SystemName(r.cell.system),
                100.0 * r.attainment.both, 100.0 * r.attainment.ttft_only,
                100.0 * r.attainment.tpot_only, r.goodput,
                static_cast<long long>(r.stats.requests_cancelled),
                static_cast<long long>(r.stats.requests_timed_out),
                static_cast<long long>(r.stats.decode_preemptions), hi, lo);
  }

  // --- Exit-code invariants (see file header). ---
  const double kEps = 0.02;  // 2% attainment slack for small-sample noise

  // CHUNKED-CLOSES-GAP: needs the single-tenant arm at the lowest and highest default hits.
  int gap_result = -1;  // -1 skip, 0 fail, 1 pass
  {
    const double lo_hit = hits.front();
    const double hi_hit = hits.back();
    const CellResult* d0 = FindCell(results, lo_hit, 0.0, System::kDisagg);
    const CellResult* c0 = FindCell(results, lo_hit, 0.0, System::kChunked);
    const CellResult* d1 = FindCell(results, hi_hit, 0.0, System::kDisagg);
    const CellResult* c1 = FindCell(results, hi_hit, 0.0, System::kChunked);
    if (hi_hit > lo_hit && d0 != nullptr && c0 != nullptr && d1 != nullptr && c1 != nullptr) {
      const double gap_cold = d0->attainment.both - c0->attainment.both;
      const double gap_warm = d1->attainment.both - c1->attainment.both;
      gap_result = gap_warm <= gap_cold + kEps ? 1 : 0;
      std::printf("CHUNKED-CLOSES-GAP: %s (disagg-chunked gap %.1f%% at hit %.2f -> %.1f%% "
                  "at hit %.2f)\n",
                  gap_result == 1 ? "PASS" : "FAIL", 100.0 * gap_cold, lo_hit,
                  100.0 * gap_warm, hi_hit);
    } else {
      std::printf("CHUNKED-CLOSES-GAP: SKIP (needs two hit rates and the single-tenant arm)\n");
    }
  }

  // DISAGG-WINS-COLD: hit 0, single-tenant, TTFT SLO halved.
  int cold_result = -1;
  {
    const CellResult* d = FindCell(results, 0.0, 0.0, System::kDisagg);
    const CellResult* v = FindCell(results, 0.0, 0.0, System::kVllm);
    const CellResult* c = FindCell(results, 0.0, 0.0, System::kChunked);
    if (d != nullptr && v != nullptr && c != nullptr) {
      cold_result = (d->tight.both + kEps >= v->tight.both &&
                     d->tight.both + kEps >= c->tight.both)
                        ? 1
                        : 0;
      std::printf("DISAGG-WINS-COLD: %s (tight-TTFT attainment disagg=%.1f%% vllm=%.1f%% "
                  "chunked=%.1f%%)\n",
                  cold_result == 1 ? "PASS" : "FAIL", 100.0 * d->tight.both,
                  100.0 * v->tight.both, 100.0 * c->tight.both);
    } else {
      std::printf("DISAGG-WINS-COLD: SKIP (needs hit 0 and the single-tenant arm)\n");
    }
  }

  // PRIORITY-PROTECTS: per multi cell, the high-priority class vs the same requests in the
  // priorities-stripped counterfactual run of the identical annotated trace.
  int priority_result = -1;
  {
    bool any = false;
    bool ok = true;
    for (const CellResult& r : results) {
      if (r.cell.tenant_frac <= 0.0) {
        continue;
      }
      any = true;
      if (r.high.both + kEps < r.high_mixed) {
        ok = false;
        std::printf("  priority regression: %s hit=%.2f hi=%.1f%% < mixed=%.1f%%\n",
                    SystemName(r.cell.system), r.cell.hit, 100.0 * r.high.both,
                    100.0 * r.high_mixed);
      }
    }
    if (any) {
      priority_result = ok ? 1 : 0;
      std::printf("PRIORITY-PROTECTS: %s (high-priority attainment vs the priorities-"
                  "stripped counterfactual, all multi-tenant cells)\n",
                  ok ? "PASS" : "FAIL");
    } else {
      std::printf("PRIORITY-PROTECTS: SKIP (needs the multi-tenant arm)\n");
    }
  }

  // --- Search section (planner fidelity; goodput cache persists across processes). ---
  std::string json = "{\n";
  json += "  \"bench\": \"fig_scenarios\",\n";
  json += "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    char line[512];
    std::snprintf(
        line, sizeof line,
        "    {\"hit\": %.2f, \"tenants\": %.2f, \"system\": \"%s\", \"both\": %.6f, "
        "\"goodput\": %.6f, \"hi_both\": %.6f, \"hi_mixed\": %.6f, \"cancelled\": %lld, "
        "\"timed_out\": %lld, "
        "\"preempted\": %lld, \"prefix_hits\": %d, \"cached_tokens\": %lld}%s\n",
        r.cell.hit, r.cell.tenant_frac, SystemName(r.cell.system), r.attainment.both,
        r.goodput, r.high.both, r.high_mixed,
        static_cast<long long>(r.stats.requests_cancelled),
        static_cast<long long>(r.stats.requests_timed_out),
        static_cast<long long>(r.stats.decode_preemptions), r.trace_stats.prefix_hits,
        static_cast<long long>(r.trace_stats.cached_prefix_tokens),
        i + 1 < results.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";

  PersistentGoodputCache goodput_cache(
      placement::GoodputCacheStore::ResolvePath(flags.goodput_cache), cluster.gpu);
  PlannerAccounting accounting;
  RunSearchSection(app, cluster, smoke, goodput_cache.cache(), &accounting, &json);
  goodput_cache.Save();

  const bool pass = gap_result != 0 && cold_result != 0 && priority_result != 0;
  json += "  \"chunked_closes_gap\": " + std::to_string(gap_result) + ",\n";
  json += "  \"disagg_wins_cold\": " + std::to_string(cold_result) + ",\n";
  json += "  \"priority_protects\": " + std::to_string(priority_result) + ",\n";
  {
    BenchJson accounting_json("fig_scenarios");
    goodput_cache.AddJsonFields(accounting_json);
    accounting.AddJsonFields(accounting_json);
    accounting_json.AddWallMs(timer);
    json += "  \"accounting\": " + accounting_json.Render();
    json += "}\n";
  }
  if (!flags.json_path.empty()) {
    std::ofstream out(flags.json_path);
    out << json;
  }
  if (!flags.trace_path.empty()) {
    recorder.WriteChromeJson(flags.trace_path);
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace distserve::bench

int main(int argc, char** argv) { return distserve::bench::Main(argc, argv); }
