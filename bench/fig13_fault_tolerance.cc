// Figure 13 (extension beyond the paper's exhibits): fault tolerance under injected failures.
//
// Sweeps a deterministic per-component failure process over decreasing MTBF and reports how
// SLO attainment, degraded goodput, and availability respond. The fault plans are generated by
// thinning against a shared candidate process (serving/fault_plan.h), so each harsher point's
// failures are a superset of the milder ones and the curve degrades monotonically instead of
// resampling unrelated fault patterns. Also exercises the failure-driven replanning path:
// a reported failure re-runs the placement search on the surviving topology, reusing the
// goodput cache warmed by the healthy-cluster search.
//
// Flags: --smoke (reduced trace for CI), --json=PATH (machine-readable results artifact),
// --goodput-cache=PATH (env DISTSERVE_GOODPUT_CACHE fallback: persist the replan section's
// goodput cache across processes), --trace=PATH (export the MTBF sweep's per-request spans —
// including the fault spans restart/re_prefill/redispatch/link_retry — as Chrome trace-event
// JSON). Output is deterministic — two runs with the same flags
// must be byte-identical (the determinism CI job diffs them); anything wall-clock-dependent
// is forbidden here. Note the replan section prints its simulation/cache-hit counts, so runs
// sharing a cache file are byte-identical to each other only once the file is warm — the
// determinism job therefore diffs cache-less runs.
//
// --cluster=SPEC (cluster/spec_parse.h grammar) substitutes a different homogeneous cluster
// for the paper testbed everywhere — the fixed-plan fault sweep and the replan section alike.
// Multi-pool fleets are fig_hetero's job and are rejected. When the flag is absent nothing
// extra is printed, so default stdout is byte-identical to the pre-flag output.
//
// --jobs=N (env DISTSERVE_JOBS) runs the MTBF sweep's points on N-1 worker threads
// through the DESIGN.md §17 sweep driver; rows are still printed in MTBF order and stdout is
// byte-identical at any N. Tracing (--trace=) forces the serial path so span order is stable.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/distserve.h"
#include "serving/fault_plan.h"
#include "serving/replanner.h"

namespace distserve::bench {
namespace {

struct Point {
  double mtbf = 0.0;  // 0 = no faults
  metrics::Attainment attainment;
  double goodput = 0.0;          // requests/s completing within both SLOs
  double completion_rate = 1.0;  // completed / offered
  metrics::FaultStats stats;
};

serving::ServingConfig FixedConfig(const Application& app, const cluster::ClusterSpec& cluster) {
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

metrics::Collector RunWithFaults(const Application& app, const cluster::ClusterSpec& cluster,
                                 const workload::Trace& trace, const serving::FaultPlan& plan,
                                 trace::Recorder* recorder = nullptr) {
  serving::ServingConfig config = FixedConfig(app, cluster);
  config.faults = plan;
  config.recorder = recorder;
  serving::ServingSystem system(std::move(config));
  return system.Run(trace);
}

// Failure-driven replanning demo: the healthy search warms the goodput cache; a reported
// failure re-plans on the shrunk topology, answering already-measured configs from cache.
int RunReplanSection(const Application& app, const cluster::ClusterSpec& cluster,
                     const workload::Trace& trace, bool smoke,
                     const std::string& goodput_cache_path, std::string* json) {
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  DistServeOptions options;
  options.model = app.model;
  options.cluster = cluster;
  options.slo = app.slo;
  options.traffic_rate = 4.0;
  options.dataset = dataset.get();
  options.goodput_cache_path = goodput_cache_path;
  options.search.num_requests = smoke ? 150 : 300;
  options.search.min_trace_duration = smoke ? 20.0 : 40.0;
  options.search.max_requests = smoke ? 1500 : 4000;
  options.search.bisection_iters = smoke ? 5 : 7;
  DistServe server(std::move(options));

  const placement::PlacementPlan healthy = server.Plan();
  const int healthy_sims = server.PlannerDetails().simulations_run;
  std::printf("\nfailure-driven replanning (chatbot-13b, 4 rps)\n");
  std::printf("  healthy plan:  %s (%d GPUs, %d simulations)\n", healthy.ToString().c_str(),
              healthy.total_gpus(), healthy_sims);

  serving::Replanner::Options replan_options;
  replan_options.profiler.window_size = 256;
  replan_options.failure_cooldown = 30.0;
  serving::Replanner replanner(replan_options,
                               [](const workload::EmpiricalDataset&, double, double) {});
  placement::PlacementPlan degraded_plan;
  int degraded_gpus = 0;
  replanner.set_on_failure([&](const workload::EmpiricalDataset&, double rate, double,
                               int failed_gpus) {
    const cluster::ClusterSpec degraded = cluster.Degraded(failed_gpus);
    degraded_gpus = degraded.total_gpus();
    degraded_plan = server.ReplanDegraded(degraded, rate);
  });
  for (const workload::Request& r : trace) {
    replanner.Observe(r);
  }
  // One node (8 GPUs) dies mid-run.
  replanner.NotifyFailure(trace.back().arrival_time, 8);
  if (replanner.failure_replans_triggered() != 1) {
    std::printf("  REPLAN: FAIL (failure trigger did not fire)\n");
    return 1;
  }
  const int degraded_sims = server.PlannerDetails().simulations_run;
  const int cache_hits = server.PlannerDetails().cache_hits;
  std::printf("  degraded plan: %s (%d GPUs of %d, %d simulations, %d cache hits)\n",
              degraded_plan.ToString().c_str(), degraded_plan.total_gpus(), degraded_gpus,
              degraded_sims, cache_hits);
  const bool fits = degraded_plan.total_gpus() <= degraded_gpus &&
                    degraded_plan.system_goodput() > 0.0;
  const bool reused = cache_hits > 0 && degraded_sims < healthy_sims;
  std::printf("  REPLAN: %s (plan fits survivors: %s, cache reused: %s)\n",
              fits && reused ? "PASS" : "FAIL", fits ? "yes" : "no", reused ? "yes" : "no");
  json->append("  \"replan\": {\"healthy_gpus\": " + std::to_string(healthy.total_gpus()) +
               ", \"degraded_gpus\": " + std::to_string(degraded_plan.total_gpus()) +
               ", \"cache_hits\": " + std::to_string(cache_hits) +
               ", \"pass\": " + (fits && reused ? "true" : "false") + "},\n");
  return fits && reused ? 0 : 1;
}

// One sweep point's full output: the summarized Point plus the raw collector, which the
// mtbf=0 task contributes as the bit-identity baseline.
struct SweepRun {
  Point point;
  metrics::Collector results;
};

int Main(int argc, char** argv) {
  const WallTimer timer;  // wall_ms of the whole sweep, reported in the JSON artifact only
  CommonFlags flags;
  if (!ParseCommonFlags(argc, argv,
                        kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagTrace | kFlagCluster |
                            kFlagJobs,
                        &flags)) {
    return 2;
  }
  const bool smoke = flags.smoke;
  cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  if (!ResolveSinglePoolCluster(flags, "fig13", &cluster)) {
    return 2;
  }
  if (!flags.trace_path.empty() && !trace::kCompiledIn) {
    std::fprintf(stderr,
                 "warning: built with -DDISTSERVE_TRACE=OFF; no spans will be exported\n");
  }
  trace::Recorder recorder;
  trace::Recorder* rec = flags.trace_path.empty() ? nullptr : &recorder;
  const std::string goodput_cache_path =
      placement::GoodputCacheStore::ResolvePath(flags.goodput_cache);
  // A shared recorder would interleave spans from concurrent runs; tracing stays serial.
  const std::unique_ptr<ThreadPool> pool_owner = rec == nullptr ? MakeSweepPool(flags.jobs)
                                                                : nullptr;
  ThreadPool* pool = pool_owner.get();

  const Application app = ChatbotOpt13B();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  workload::TraceSpec spec;
  spec.rate = 9.0;
  spec.num_requests = smoke ? 400 : 2000;
  spec.seed = 91;
  const workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  const double horizon = trace.back().arrival_time + 30.0;

  // MTBF sweep as fractions of the trace horizon, harshest last. All points thin against the
  // harshest candidate process so their failure sets are nested.
  const std::vector<double> fractions = {2.0, 1.0, 0.5, 0.25};
  std::vector<double> mtbfs = {0.0};
  for (double f : fractions) {
    mtbfs.push_back(horizon * f);
  }
  std::sort(mtbfs.begin() + 1, mtbfs.end(), std::greater<double>());

  std::printf("fig13: SLO attainment vs component MTBF (chatbot-13b, 2P+2D, %d requests)\n",
              static_cast<int>(trace.size()));
  std::printf("%-12s %8s %8s %10s %8s %8s %10s %8s\n", "mtbf", "both", "complete", "goodput",
              "failures", "lost", "reprefills", "downtime");

  // Each MTBF point is an independent simulation; fan them out through the sweep driver
  // (serial when pool is null) and print rows afterward in MTBF order, so stdout is
  // byte-identical at any --jobs value.
  std::vector<std::function<SweepRun()>> sweep_tasks;
  for (double mtbf : mtbfs) {
    sweep_tasks.push_back([&app, &cluster, &trace, &fractions, horizon, rec, mtbf] {
      serving::FaultModelOptions fault_options;
      fault_options.mtbf = mtbf;
      fault_options.mttr = 20.0;
      fault_options.horizon = horizon;
      fault_options.seed = 11;
      fault_options.candidate_mtbf = horizon * fractions.back();
      const serving::FaultPlan plan = mtbf > 0.0 ? serving::GenerateFaultPlan(fault_options, 2, 2, 2)
                                                 : serving::FaultPlan{};
      SweepRun run;
      run.results = RunWithFaults(app, cluster, trace, plan, rec);
      run.point.mtbf = mtbf;
      run.point.attainment = run.results.ComputeAttainment(app.slo);
      run.point.goodput = run.results.GoodputUnderSlo(app.slo);
      run.point.completion_rate = run.results.CompletionRate();
      run.point.stats = run.results.fault_stats();
      return run;
    });
  }
  std::vector<SweepRun> runs = placement::RunSweepTasks<SweepRun>(pool, std::move(sweep_tasks));

  std::vector<Point> points;
  metrics::Collector baseline;
  for (SweepRun& run : runs) {
    const Point& p = run.point;
    points.push_back(p);
    char mtbf_label[32];
    if (p.mtbf > 0.0) {
      std::snprintf(mtbf_label, sizeof mtbf_label, "%.0fs", p.mtbf);
    } else {
      std::snprintf(mtbf_label, sizeof mtbf_label, "none");
    }
    std::printf("%-12s %7.2f%% %7.2f%% %10.3f %8lld %8lld %10lld %7.0fs\n", mtbf_label,
                100.0 * p.attainment.both, 100.0 * p.completion_rate, p.goodput,
                static_cast<long long>(p.stats.instance_failures + p.stats.link_failures),
                static_cast<long long>(p.stats.requests_lost),
                static_cast<long long>(p.stats.kv_reprefills), p.stats.downtime_seconds);
    if (p.mtbf == 0.0) {
      baseline = std::move(run.results);
    }
  }

  // Monotonicity: nested fault sets must not improve attainment as MTBF shrinks.
  bool monotone = true;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].attainment.both > points[i - 1].attainment.both + 1e-12) {
      monotone = false;
    }
  }
  std::printf("MONOTONE: %s\n", monotone ? "PASS" : "FAIL");

  // The no-fault configuration must reproduce the baseline engine bit-for-bit: the fault
  // machinery may not perturb a healthy run.
  const metrics::Collector repeat = RunWithFaults(app, cluster, trace, serving::FaultPlan{});
  const bool identical = metrics::BitIdentical(baseline, repeat) && !repeat.fault_stats().any();
  std::printf("NO-FAULT BIT-IDENTITY: %s\n", identical ? "PASS" : "FAIL");

  std::string json = "{\n";
  json += "  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"mtbf\": %.3f, \"attainment\": %.6f, \"goodput\": %.6f, "
                  "\"completion_rate\": %.6f, \"lost\": %lld, \"downtime\": %.3f}%s\n",
                  points[i].mtbf, points[i].attainment.both, points[i].goodput,
                  points[i].completion_rate, static_cast<long long>(points[i].stats.requests_lost),
                  points[i].stats.downtime_seconds, i + 1 < points.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";

  const int replan_rc =
      RunReplanSection(app, cluster, trace, smoke, goodput_cache_path, &json);

  json += "  \"monotone\": " + std::string(monotone ? "true" : "false") + ",\n";
  {
    char wall[64];
    std::snprintf(wall, sizeof wall, "  \"wall_ms\": %.3f,\n", timer.ms());
    json += wall;
  }
  json += "  \"bit_identical\": " + std::string(identical ? "true" : "false") + "\n";
  json += "}\n";
  if (!flags.json_path.empty()) {
    std::ofstream out(flags.json_path);
    out << json;
  }
  if (!flags.trace_path.empty()) {
    recorder.WriteChromeJson(flags.trace_path);
  }
  return (monotone && identical && replan_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace distserve::bench

int main(int argc, char** argv) { return distserve::bench::Main(argc, argv); }
