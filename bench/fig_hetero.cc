// fig_hetero (extension beyond the paper's exhibits): SLO-aware per-phase allocation over
// heterogeneous GPU pools (DESIGN.md §16).
//
// Plans one application over a multi-pool fleet under all three planner objectives
// (MaxGoodput / MinGpus / MinCost) and reports, per objective, which pool each phase landed
// on, the plan, its GPU count, $/hr, sustained goodput, and cost per million served requests.
// Then compares the MinCost plan against planning each pool alone (the "uniform fleet"
// baselines) — the heterogeneous search's candidate set contains every single-pool plan, so
// mixed must never cost more, and routing prefill to compute-rich SKUs / decode to
// bandwidth-rich SKUs is what makes it strictly cheaper. Finally exercises degraded replanning:
// the chosen plan's prefill pool is failed wholesale through HeteroGpuAllocator::MarkFailed,
// and the replan on fleet.Degraded(alloc.FailedPerPool()) must fall back to surviving pools.
//
// Flags: --smoke (reduced search fidelity for CI), --json=PATH (machine-readable artifact:
// goodput-per-dollar, cost-per-million-requests, planner accounting, cache stats),
// --goodput-cache=PATH (env DISTSERVE_GOODPUT_CACHE fallback), --cluster=SPEC
// (cluster/spec_parse.h grammar; default the mixed demo fleet), --no-analytic-tier (escape
// hatch, DESIGN.md §15), --jobs=N (env DISTSERVE_JOBS: run the planner's candidate
// simulations on N-1 worker threads; DESIGN.md §17). Stdout is byte-identical across runs —
// cache cold or warm, tier on or off, any job count (the CI determinism job diffs exactly
// this); search-cost accounting and cache statistics go only into the JSON artifact.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/spec_parse.h"
#include "placement/hetero.h"

namespace distserve::bench {
namespace {

const char* ObjectiveName(placement::PlannerObjective objective) {
  switch (objective) {
    case placement::PlannerObjective::kMaxGoodput:
      return "max-goodput";
    case placement::PlannerObjective::kMinGpus:
      return "min-gpus";
    case placement::PlannerObjective::kMinCost:
      return "min-cost";
  }
  return "unknown";
}

// "h100 tp2 pp1 x3": pool, parallelism, replica count of one phase.
std::string PhaseDesc(const std::string& pool, const model::ParallelismConfig& par,
                      int replicas) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s tp%d pp%d x%d", pool.c_str(), par.tp, par.pp, replicas);
  return buf;
}

double CostPerMillion(const placement::PoolAssignment& a, double traffic_rate) {
  const double served = std::min(traffic_rate, a.system_goodput);
  return served > 0.0 ? a.cost_per_hour / (served * 3600.0) * 1e6 : -1.0;
}

void PrintAssignmentRow(const char* label, const placement::PoolAssignment& a,
                        double traffic_rate) {
  const double per_million = CostPerMillion(a, traffic_rate);
  std::printf("%-12s %-18s %-18s %5d %8.2f %9.3f %10.2f %s\n", label,
              PhaseDesc(a.prefill_pool_name, a.plan.prefill_par, a.plan.num_prefill).c_str(),
              PhaseDesc(a.decode_pool_name, a.plan.decode_par, a.plan.num_decode).c_str(),
              a.total_gpus(), a.cost_per_hour, a.system_goodput, per_million,
              a.feasible ? "yes" : "no");
}

// Nested JSON for one objective's result: the chosen assignment's economics plus the search's
// cost accounting (accounting varies tier-on/off and cache-cold/warm; it must never reach
// stdout).
std::string ResultJson(const placement::HeteroPlannerResult& r, double traffic_rate) {
  const placement::PoolAssignment& a = r.chosen;
  const double per_dollar = a.cost_per_hour > 0.0 ? a.system_goodput / a.cost_per_hour : 0.0;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"prefill_pool\": \"%s\", \"decode_pool\": \"%s\", \"colocated\": %s, "
      "\"plan\": \"%s\", \"total_gpus\": %d, \"cost_per_hour\": %.6g, "
      "\"system_goodput\": %.6g, \"goodput_per_dollar\": %.6g, "
      "\"cost_per_million_requests\": %.6g, \"feasible\": %s, "
      "\"pairs_considered\": %d, \"pairs_cost_pruned\": %d, \"configs_evaluated\": %d, "
      "\"simulations_run\": %d, \"simulations_skipped\": %d, \"cache_hits\": %d, "
      "\"pruned_roofline\": %d, \"pruned_tier\": %d, \"probes\": %lld, "
      "\"trace_cache_hits\": %lld}",
      a.prefill_pool_name.c_str(), a.decode_pool_name.c_str(), a.colocated ? "true" : "false",
      a.plan.ToString().c_str(), a.total_gpus(), a.cost_per_hour, a.system_goodput, per_dollar,
      CostPerMillion(a, traffic_rate), a.feasible ? "true" : "false", r.pairs_considered,
      r.pairs_cost_pruned, r.configs_evaluated, r.simulations_run, r.simulations_skipped,
      r.cache_hits, r.configs_pruned_roofline, r.configs_pruned_tier,
      static_cast<long long>(r.probes), static_cast<long long>(r.trace_cache_hits));
  return buf;
}

int Main(int argc, char** argv) {
  const WallTimer timer;
  CommonFlags flags;
  flags.cluster_spec = "mixed";  // default demo fleet; --cluster=SPEC overrides
  if (!ParseCommonFlags(argc, argv,
                        kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagNoAnalyticTier |
                            kFlagCluster | kFlagJobs,
                        &flags)) {
    return 2;
  }
  const bool smoke = flags.smoke;
  const bool analytic_tier = flags.analytic_tier;
  std::string error;
  const auto fleet = cluster::ParseClusterSpec(flags.cluster_spec, &error);
  if (!fleet) {
    std::fprintf(stderr, "--cluster=%s: %s\n", flags.cluster_spec.c_str(), error.c_str());
    return 2;
  }
  const std::unique_ptr<ThreadPool> sweep_pool = MakeSweepPool(flags.jobs);

  const Application app = ChatbotOpt13B();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  // High enough that capacity binds: single cheap pairs cannot serve it, so the objectives
  // separate and cross-pool plans (prefill on the compute-per-dollar SKU, decode on the
  // bandwidth-per-dollar SKU) get room to beat every uniform fleet.
  const double traffic_rate = 40.0;

  placement::PlannerInputs inputs =
      MakePlannerInputs(app, fleet->PoolCluster(0), dataset.get(), traffic_rate);
  inputs.use_analytic_tier = analytic_tier;
  inputs.pool = sweep_pool.get();
  if (smoke) {
    inputs.search.num_requests = 150;
    inputs.search.min_trace_duration = 20.0;
    inputs.search.max_requests = 1500;
    inputs.search.bisection_iters = 5;
  }
  PersistentGoodputCache persist(
      placement::GoodputCacheStore::ResolvePath(flags.goodput_cache), *fleet);
  inputs.goodput_cache = persist.cache();

  std::printf("fig_hetero: per-phase pool allocation (%s, %.1f req/s, TTFT<=%.3gs "
              "TPOT<=%.3gs)\n",
              app.name.c_str(), traffic_rate, app.slo.ttft, app.slo.tpot);
  std::printf("fleet: %s (%d GPUs, $%.2f/hr whole fleet)\n",
              cluster::FleetToString(*fleet).c_str(), fleet->total_gpus(),
              fleet->hourly_cost());

  std::printf("\n%-12s %-18s %-18s %5s %8s %9s %10s %s\n", "objective", "prefill", "decode",
              "gpus", "$/hr", "goodput", "$/M-req", "feasible");
  const std::vector<placement::PlannerObjective> objectives = {
      placement::PlannerObjective::kMaxGoodput, placement::PlannerObjective::kMinGpus,
      placement::PlannerObjective::kMinCost};
  std::vector<placement::HeteroPlannerResult> results;
  for (placement::PlannerObjective objective : objectives) {
    inputs.objective = objective;
    results.push_back(placement::HeterogeneousPlacement(inputs, *fleet));
    PrintAssignmentRow(ObjectiveName(objective), results.back().chosen, traffic_rate);
  }
  const placement::HeteroPlannerResult& min_cost = results.back();

  // MinCost vs planning each pool alone. The mixed search's candidates include every
  // single-pool plan, so mixed <= best uniform whenever any uniform is feasible.
  std::printf("\n-- min-cost vs uniform single-pool fleets --\n");
  inputs.objective = placement::PlannerObjective::kMinCost;
  double best_uniform_cost = -1.0;
  std::string uniform_json;
  for (size_t i = 0; i < fleet->pools.size(); ++i) {
    cluster::HeteroClusterSpec uniform = *fleet;
    uniform.pools = {fleet->pools[i]};
    const placement::HeteroPlannerResult r = placement::HeterogeneousPlacement(inputs, uniform);
    std::printf("uniform %-6s %5d gpus  $%8.2f/hr  %s\n", fleet->pools[i].name.c_str(),
                r.chosen.total_gpus(), r.chosen.cost_per_hour,
                r.chosen.feasible ? "feasible" : "infeasible");
    if (r.chosen.feasible &&
        (best_uniform_cost < 0.0 || r.chosen.cost_per_hour < best_uniform_cost)) {
      best_uniform_cost = r.chosen.cost_per_hour;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"pool\": \"%s\", \"total_gpus\": %d, \"cost_per_hour\": %.6g, "
                  "\"feasible\": %s}",
                  uniform_json.empty() ? "" : ", ", fleet->pools[i].name.c_str(),
                  r.chosen.total_gpus(), r.chosen.cost_per_hour,
                  r.chosen.feasible ? "true" : "false");
    uniform_json += buf;
  }
  const bool cheaper = min_cost.chosen.feasible && best_uniform_cost >= 0.0 &&
                       min_cost.chosen.cost_per_hour <= best_uniform_cost;
  std::printf("mixed min-cost $%8.2f/hr vs best uniform $%8.2f/hr\n",
              min_cost.chosen.cost_per_hour, best_uniform_cost);
  std::printf("MIXED<=UNIFORM: %s\n", cheaper ? "PASS" : "FAIL");

  // Degraded replan: fail the min-cost plan's prefill pool wholesale (one node when it is the
  // only pool) via the allocator, then replan on the surviving fleet.
  const int failed_pool = min_cost.chosen.prefill_pool;
  const std::string failed_name = min_cost.chosen.prefill_pool_name;
  cluster::HeteroGpuAllocator alloc(*fleet);
  {
    const cluster::GpuPool& pool = fleet->pools[static_cast<size_t>(failed_pool)];
    const int fail_nodes = fleet->pools.size() > 1 ? pool.num_nodes : 1;
    for (int node = 0; node < fail_nodes; ++node) {
      for (int index = 0; index < pool.gpus_per_node; ++index) {
        alloc.MarkFailed({failed_pool, {node, index}});
      }
    }
  }
  const cluster::HeteroClusterSpec degraded = fleet->Degraded(alloc.FailedPerPool());
  std::printf("\n-- degraded replan: %d GPUs of pool %s failed --\n",
              alloc.failed_gpus(failed_pool), failed_name.c_str());
  std::printf("surviving fleet: %s\n", cluster::FleetToString(degraded).c_str());
  const placement::HeteroPlannerResult replanned =
      placement::HeterogeneousPlacement(inputs, degraded);
  PrintAssignmentRow("min-cost", replanned.chosen, traffic_rate);
  const bool avoided = fleet->pools.size() <= 1 ||
                       (replanned.chosen.prefill_pool_name != failed_name &&
                        replanned.chosen.decode_pool_name != failed_name);
  const bool replan_ok = replanned.chosen.system_goodput > 0.0 && avoided;
  std::printf("DEGRADED-REPLAN: %s (goodput > 0: %s, avoids failed pool: %s)\n",
              replan_ok ? "PASS" : "FAIL",
              replanned.chosen.system_goodput > 0.0 ? "yes" : "no", avoided ? "yes" : "no");

  if (!flags.json_path.empty()) {
    BenchJson json("fig_hetero");
    json.AddBool("smoke", smoke);
    json.AddBool("analytic_tier", analytic_tier);
    json.AddInt("jobs", flags.jobs);
    json.AddString("fleet", cluster::FleetToString(*fleet));
    json.AddDouble("traffic_rate", traffic_rate);
    json.AddDouble("fleet_cost_per_hour", fleet->hourly_cost());
    json.AddWallMs(timer);
    for (size_t i = 0; i < objectives.size(); ++i) {
      json.AddRaw(ObjectiveName(objectives[i]), ResultJson(results[i], traffic_rate));
    }
    json.AddRaw("uniform", "[" + uniform_json + "]");
    json.AddDouble("best_uniform_cost_per_hour", best_uniform_cost);
    json.AddBool("min_cost_cheaper_than_uniform", cheaper);
    json.AddRaw("degraded_replan", ResultJson(replanned, traffic_rate));
    json.AddBool("degraded_replan_pass", replan_ok);
    if (persist.enabled()) {
      persist.AddJsonFields(json);
    }
    if (!json.WriteTo(flags.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", flags.json_path.c_str());
      return 1;
    }
  }
  return (cheaper && replan_ok) ? 0 : 1;
}

}  // namespace
}  // namespace distserve::bench

int main(int argc, char** argv) { return distserve::bench::Main(argc, argv); }
