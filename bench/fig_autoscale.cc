// fig_autoscale (extension beyond the paper's exhibits; DESIGN.md §18): load-driven
// autoscaling over a simulated day of diurnal traffic, versus static provisioning.
//
// A RateSchedule shapes a full day — overnight trough, morning ramp, broad afternoon peak,
// evening decline — plus a flash crowd (a multiplicative spike) landing mid-plateau. One
// scheduled trace is generated for the whole day and sliced into control windows; both
// contenders serve the *same* slices:
//
//   static:     one placement sized for the predictable diurnal peak, held all day. The
//               flash crowd is exactly the event static provisioning cannot foresee.
//   autoscaled: starts sized for the overnight trough; after each window a
//               serving::Autoscaler consumes the window's attainment/rate and may trigger
//               DistServe::Replan (warm goodput-cache start), with the new plan taking
//               effect the next window. Every plan change is charged its migration cost —
//               the KV drain over the cross-node fabric with both fleets held during the
//               drain — against the GPU-hour denominator, so scaling is never free.
//
// Windows are served episodically (each on a fresh engine bound to the window's plan): the
// approximation drops cross-window backlog carryover, identically for both contenders.
// The scoreboard is goodput-per-GPU-hour: SLO-attained requests divided by GPU-hours
// consumed (including migration double-occupancy). The exit code asserts the autoscaler
// beats static on that metric while holding overall SLO attainment at least as high, and
// that the controller actually both scaled up and down during the day.
//
// Flags: --smoke (a compressed day for CI), --json=PATH (machine-readable artifact),
// --goodput-cache=PATH (env DISTSERVE_GOODPUT_CACHE fallback: persist planner goodputs
// across runs; cached values are exact, so warm stdout is byte-identical to cold — cache
// accounting goes to the JSON only), --jobs=N (env DISTSERVE_JOBS: planner search
// threads; plans are bit-identical at any N — DESIGN.md §10 — so stdout is too; the CI
// determinism job diffs --jobs=1 vs 4). --smoke additionally self-checks that identity
// in-process by re-running the autoscaled day at a different planner thread count and
// comparing every row, decision, and total.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/distserve.h"
#include "serving/autoscaler.h"
#include "workload/arrival.h"

namespace distserve::bench {
namespace {

struct DayParams {
  double day = 86400.0;       // simulated-day length, seconds
  double window = 1800.0;     // control-window length, seconds
  double trough = 3.0;        // overnight rate, req/s (one minimum plan, lightly loaded)
  double peak = 24.0;         // diurnal peak rate, req/s (static provisions for this; must
                              // exceed one replica's capacity or static is trivially optimal)
  double spike_mult = 1.6;    // flash crowd multiplier, landing mid-plateau
  double spike_windows = 2.0; // flash crowd duration in windows
  double cv = 1.0;            // arrival burstiness (1 = non-homogeneous Poisson)
  uint64_t seed = 77;
  int planner_requests = 300; // planner simulation fidelity
  int bisection_iters = 7;

  double spike_start() const { return 0.55 * day; }
  double spike_duration() const { return spike_windows * window; }
  int num_windows() const { return static_cast<int>(day / window); }
};

struct WindowMetrics {
  int offered = 0;
  double observed_rate = 0.0;
  double attainment = 1.0;     // joint-SLO fraction
  double goodput = 0.0;        // attained req/s within the window
  double mean_latency = 0.0;
  double mean_input_len = 0.0;
  double mean_output_len = 0.0;
};

struct DayTotals {
  double attained = 0.0;  // SLO-attained requests (fractional accumulation)
  int offered = 0;
  double gpu_hours = 0.0;            // serving occupancy
  double migration_gpu_hours = 0.0;  // drain double-occupancy, autoscaled only
  int replans = 0;

  double attainment() const { return offered > 0 ? attained / offered : 1.0; }
  double total_gpu_hours() const { return gpu_hours + migration_gpu_hours; }
  double goodput_per_gpu_hour() const {
    return total_gpu_hours() > 0.0 ? attained / total_gpu_hours() : 0.0;
  }
};

// One window of one contender: per-window rows are printed side by side afterwards.
struct WindowRow {
  WindowMetrics metrics;
  int gpus = 0;
  std::string action;  // autoscaled only: "hold" / decision + replan detail
};

struct DayRun {
  DayTotals totals;
  std::vector<WindowRow> rows;
  std::string initial_plan;
  int initial_gpus = 0;
  double initial_capacity = 0.0;
  std::string plan_sequence;  // "plan0 | plan1 | ..." — the SHARD-IDENTITY fingerprint
  serving::Autoscaler::Stats controller;
  int effective_ups = 0;    // replans that actually grew the fleet
  int effective_downs = 0;  // replans that actually shrank it
  PlannerAccounting planner;  // JSON only — never printed to stdout
  double migration_drain_seconds = 0.0;
};

// Serves one window slice on a fresh engine bound to `plan` and summarizes it.
WindowMetrics RunWindow(const Application& app, const cluster::ClusterSpec& cluster,
                        const placement::PlacementPlan& plan, const workload::Trace& slice,
                        double window_len) {
  WindowMetrics m;
  m.offered = static_cast<int>(slice.size());
  m.observed_rate = static_cast<double>(slice.size()) / window_len;
  if (slice.empty()) {
    return m;
  }
  const metrics::Collector results = MakeDistServeRunner(app.model, cluster, plan)(slice);
  m.attainment = results.ComputeAttainment(app.slo).both;
  m.goodput = m.attainment * m.observed_rate;
  double latency_sum = 0.0;
  for (const metrics::RequestRecord& r : results.records()) {
    latency_sum += r.TotalLatency();
  }
  if (!results.records().empty()) {
    m.mean_latency = latency_sum / static_cast<double>(results.records().size());
  }
  double in_sum = 0.0;
  double out_sum = 0.0;
  for (const workload::Request& r : slice) {
    in_sum += r.input_len;
    out_sum += r.output_len;
  }
  m.mean_input_len = in_sum / static_cast<double>(slice.size());
  m.mean_output_len = out_sum / static_cast<double>(slice.size());
  return m;
}

DistServeOptions FacadeOptions(const Application& app, const cluster::ClusterSpec& cluster,
                               const workload::Dataset* dataset, double traffic_rate,
                               const DayParams& params, int planner_threads,
                               const std::string& cache_path) {
  DistServeOptions options;
  options.model = app.model;
  options.cluster = cluster;
  options.slo = app.slo;
  options.dataset = dataset;
  options.traffic_rate = traffic_rate;
  options.planner_threads = planner_threads;
  options.goodput_cache_path = cache_path;
  options.search.num_requests = params.planner_requests;
  options.search.min_trace_duration = 40.0;
  options.search.max_requests = 4000;
  options.search.bisection_iters = params.bisection_iters;
  return options;
}

// The static contender: one peak-sized plan held for every window.
DayRun RunStaticDay(const Application& app, const cluster::ClusterSpec& cluster,
                    const workload::Dataset* dataset,
                    const std::vector<workload::Trace>& slices, const DayParams& params,
                    int planner_threads, const std::string& cache_path) {
  DayRun run;
  DistServe server(
      FacadeOptions(app, cluster, dataset, params.peak, params, planner_threads, cache_path));
  const placement::PlacementPlan plan = server.Plan();
  run.planner.Add(server.PlannerDetails());
  run.initial_plan = plan.ToString();
  run.initial_gpus = plan.total_gpus();
  run.initial_capacity = plan.system_goodput();
  run.plan_sequence = run.initial_plan;
  for (const workload::Trace& slice : slices) {
    WindowRow row;
    row.metrics = RunWindow(app, cluster, plan, slice, params.window);
    row.gpus = plan.total_gpus();
    run.rows.push_back(row);
    run.totals.offered += row.metrics.offered;
    run.totals.attained += row.metrics.attainment * row.metrics.offered;
    run.totals.gpu_hours += plan.total_gpus() * params.window / 3600.0;
  }
  return run;
}

// The autoscaled contender: controller consumes each window, replans take effect the next.
DayRun RunAutoscaledDay(const Application& app, const cluster::ClusterSpec& cluster,
                        const workload::Dataset* dataset,
                        const std::vector<workload::Trace>& slices, const DayParams& params,
                        int planner_threads, const std::string& cache_path) {
  DayRun run;
  serving::Autoscaler::Options controller_options;
  controller_options.cooldown = params.window;  // at most one action per window
  const double initial_rate =
      std::max(controller_options.min_plan_rate,
               params.trough * controller_options.rate_headroom);
  DistServe server(
      FacadeOptions(app, cluster, dataset, initial_rate, params, planner_threads, cache_path));
  placement::PlacementPlan plan = server.Plan();
  run.planner.Add(server.PlannerDetails());
  run.initial_plan = plan.ToString();
  run.initial_gpus = plan.total_gpus();
  run.initial_capacity = plan.system_goodput();
  run.plan_sequence = run.initial_plan;

  serving::Autoscaler controller(controller_options, plan.system_goodput(), 0.0);
  for (size_t w = 0; w < slices.size(); ++w) {
    const double t0 = static_cast<double>(w) * params.window;
    const double t1 = t0 + params.window;
    WindowRow row;
    row.metrics = RunWindow(app, cluster, plan, slices[w], params.window);
    row.gpus = plan.total_gpus();
    run.totals.offered += row.metrics.offered;
    run.totals.attained += row.metrics.attainment * row.metrics.offered;
    run.totals.gpu_hours += plan.total_gpus() * params.window / 3600.0;

    serving::WindowSample sample;
    sample.start = t0;
    sample.end = t1;
    sample.requests = row.metrics.offered;
    sample.observed_rate = row.metrics.observed_rate;
    sample.attainment = row.metrics.attainment;
    sample.goodput = row.metrics.goodput;
    sample.mean_latency = row.metrics.mean_latency;
    const serving::AutoscaleDecision decision = controller.Observe(sample);
    if (decision.action == serving::AutoscaleAction::kHold) {
      row.action = "hold";
    } else {
      const placement::PlacementPlan old_plan = plan;
      plan = server.Replan(dataset, decision.plan_rate);
      run.planner.Add(server.PlannerDetails());
      ++run.totals.replans;
      const double resident_tokens = serving::EstimateResidentKvTokens(
          row.metrics.observed_rate, row.metrics.mean_latency, row.metrics.mean_input_len,
          row.metrics.mean_output_len);
      const serving::MigrationCost cost =
          serving::EstimateMigrationCost(old_plan, plan, app.model, cluster, resident_tokens);
      run.totals.migration_gpu_hours += cost.gpu_seconds / 3600.0;
      run.migration_drain_seconds += cost.drain_seconds;
      controller.InstallPlan(plan.system_goodput(), t1);
      run.plan_sequence += " | " + plan.ToString();
      const char* verb = decision.action == serving::AutoscaleAction::kScaleUp ? "scale-up"
                                                                               : "scale-down";
      char detail[256];
      if (plan.total_gpus() == old_plan.total_gpus()) {
        // The replan resolved to the same footprint (e.g. already at the minimum plan):
        // the decision stands in the controller stats, but nothing moved.
        std::snprintf(detail, sizeof detail, "%s (%s) -> no-op @ %.2f rps (plan unchanged)",
                      verb, decision.reason.c_str(), decision.plan_rate);
      } else {
        (plan.total_gpus() > old_plan.total_gpus() ? run.effective_ups
                                                   : run.effective_downs) += 1;
        std::snprintf(detail, sizeof detail,
                      "%s (%s) -> replan @ %.2f rps: %s (%d GPUs, drain %.2fs)", verb,
                      decision.reason.c_str(), decision.plan_rate, plan.ToString().c_str(),
                      plan.total_gpus(), cost.drain_seconds);
      }
      row.action = detail;
    }
    run.rows.push_back(row);
  }
  run.controller = controller.stats();
  return run;
}

// The SHARD-IDENTITY fingerprint: every printed number and decision of a day run, rendered
// exactly as the table renders it.
std::string Fingerprint(const DayRun& run) {
  std::string fp = run.plan_sequence;
  char buf[160];
  for (const WindowRow& row : run.rows) {
    std::snprintf(buf, sizeof buf, "|%d,%d,%.4f,%.4f,%s", row.metrics.offered, row.gpus,
                  row.metrics.attainment, row.metrics.goodput, row.action.c_str());
    fp += buf;
  }
  std::snprintf(buf, sizeof buf, "|%.6f,%.6f,%.6f", run.totals.attained,
                run.totals.gpu_hours, run.totals.migration_gpu_hours);
  fp += buf;
  return fp;
}

int Main(int argc, char** argv) {
  const WallTimer timer;
  CommonFlags flags;
  if (!ParseCommonFlags(argc, argv, kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagJobs,
                        &flags)) {
    return 2;
  }
  DayParams params;
  if (flags.smoke) {
    params.day = 2400.0;
    params.window = 200.0;
    params.planner_requests = 150;
    params.bisection_iters = 5;
  }
  const Application app = ChatbotOpt13B();
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  const std::string cache_path = placement::GoodputCacheStore::ResolvePath(flags.goodput_cache);

  workload::RateSchedule schedule =
      workload::RateSchedule::Diurnal(params.trough, params.peak, params.day);
  schedule.AddSpike({params.spike_start(), params.spike_duration(), params.spike_mult});

  workload::ScheduledTraceSpec trace_spec;
  trace_spec.schedule = &schedule;
  trace_spec.burstiness_cv = params.cv;
  trace_spec.horizon = params.day;
  trace_spec.seed = params.seed;
  const workload::Trace day_trace = workload::GenerateScheduledTrace(trace_spec, *dataset);

  // Slice once; both contenders serve the same windows.
  const int num_windows = params.num_windows();
  std::vector<workload::Trace> slices(static_cast<size_t>(num_windows));
  for (const workload::Request& r : day_trace) {
    const int w = std::min(num_windows - 1, static_cast<int>(r.arrival_time / params.window));
    workload::Trace& slice = slices[static_cast<size_t>(w)];
    workload::Request q = r;
    q.arrival_time -= static_cast<double>(w) * params.window;
    q.id = static_cast<workload::RequestId>(slice.size());
    slice.push_back(q);
  }

  std::printf("fig_autoscale: goodput-per-GPU-hour, autoscaled vs static (%s)\n",
              app.name.c_str());
  std::printf(
      "# day %.0fs, %d windows of %.0fs | diurnal %.1f->%.1f rps, flash crowd x%.1f @ "
      "[%.0f, %.0f)s\n",
      params.day, num_windows, params.window, params.trough, params.peak, params.spike_mult,
      params.spike_start(), params.spike_start() + params.spike_duration());
  std::printf("# trace: %d requests (mean %.2f rps, peak %.2f rps), cv %.1f, seed %llu\n",
              static_cast<int>(day_trace.size()), schedule.MeanRate(params.day),
              schedule.max_rate(), params.cv,
              static_cast<unsigned long long>(params.seed));

  DayRun statics = RunStaticDay(app, cluster, dataset.get(), slices, params, flags.jobs,
                                cache_path);
  std::printf("# static plan (sized for diurnal peak %.1f rps): %s (%d GPUs, capacity %.2f "
              "rps)\n",
              params.peak, statics.initial_plan.c_str(), statics.initial_gpus,
              statics.initial_capacity);

  DayRun autos = RunAutoscaledDay(app, cluster, dataset.get(), slices, params, flags.jobs,
                                  cache_path);
  std::printf("# autoscaled initial plan (sized for trough): %s (%d GPUs, capacity %.2f "
              "rps)\n\n",
              autos.initial_plan.c_str(), autos.initial_gpus, autos.initial_capacity);

  std::printf("%-4s %-13s %7s %6s | %4s %7s %8s | %4s %7s %8s  %s\n", "win", "t(h)", "offer",
              "rate", "gpus", "attain", "goodput", "gpus", "attain", "goodput", "action");
  for (int w = 0; w < num_windows; ++w) {
    const WindowRow& a = autos.rows[static_cast<size_t>(w)];
    const WindowRow& s = statics.rows[static_cast<size_t>(w)];
    char span[32];
    std::snprintf(span, sizeof span, "[%5.2f,%5.2f)", w * params.window / 3600.0,
                  (w + 1) * params.window / 3600.0);
    std::printf("w%02d  %-13s %7d %6.2f | %4d %6.1f%% %8.3f | %4d %6.1f%% %8.3f  %s\n", w,
                span, a.metrics.offered, a.metrics.observed_rate, a.gpus,
                100.0 * a.metrics.attainment, a.metrics.goodput, s.gpus,
                100.0 * s.metrics.attainment, s.metrics.goodput, a.action.c_str());
  }

  std::printf("\ntotals (%d requests offered to each):\n", autos.totals.offered);
  std::printf(
      "  autoscaled: attained %.0f (%.2f%%), %.2f GPU-h (+%.3f migration over %.1fs drain), "
      "%.1f att-req/GPU-h, %d replans (%d up, %d down)\n",
      autos.totals.attained, 100.0 * autos.totals.attainment(), autos.totals.gpu_hours,
      autos.totals.migration_gpu_hours, autos.migration_drain_seconds,
      autos.totals.goodput_per_gpu_hour(), autos.totals.replans, autos.effective_ups,
      autos.effective_downs);
  std::printf("  static:     attained %.0f (%.2f%%), %.2f GPU-h, %.1f att-req/GPU-h\n",
              statics.totals.attained, 100.0 * statics.totals.attainment(),
              statics.totals.gpu_hours, statics.totals.goodput_per_gpu_hour());

  const double ratio = statics.totals.goodput_per_gpu_hour() > 0.0
                           ? autos.totals.goodput_per_gpu_hour() /
                                 statics.totals.goodput_per_gpu_hour()
                           : 0.0;
  const bool wins_gpu_hours =
      autos.totals.goodput_per_gpu_hour() > statics.totals.goodput_per_gpu_hour();
  const bool holds_attainment = autos.totals.attainment() >= statics.totals.attainment();
  const bool controller_active = autos.effective_ups >= 1 && autos.effective_downs >= 1;
  std::printf("GOODPUT/GPU-HOUR: %s (%.2fx static)\n", wins_gpu_hours ? "PASS" : "FAIL",
              ratio);
  std::printf("ATTAINMENT HELD: %s (%.2f%% vs static %.2f%%)\n",
              holds_attainment ? "PASS" : "FAIL", 100.0 * autos.totals.attainment(),
              100.0 * statics.totals.attainment());
  std::printf("CONTROLLER ACTIVE: %s (%d effective scale-ups, %d effective scale-downs)\n",
              controller_active ? "PASS" : "FAIL", autos.effective_ups,
              autos.effective_downs);

  // Smoke self-check: the whole autoscaled day — every plan, row, and decision — must be
  // bit-identical at a different planner thread count (DESIGN.md §10 extended to the
  // control loop). The CI determinism job enforces the same property on full stdout.
  bool shard_identity = true;
  if (flags.smoke) {
    const int other_threads = flags.jobs == 1 ? 2 : 1;
    const DayRun rerun = RunAutoscaledDay(app, cluster, dataset.get(), slices, params,
                                          other_threads, cache_path);
    shard_identity = Fingerprint(rerun) == Fingerprint(autos);
    // No thread counts in the line: stdout must stay byte-identical across --jobs values.
    std::printf("SHARD-IDENTITY: %s (autoscaled day re-run at another planner thread count)\n",
                shard_identity ? "PASS" : "FAIL");
  }

  if (!flags.json_path.empty()) {
    BenchJson json("fig_autoscale");
    json.AddBool("smoke", flags.smoke);
    json.AddInt("windows", num_windows);
    json.AddInt("offered", autos.totals.offered);
    json.AddDouble("auto_attainment", autos.totals.attainment());
    json.AddDouble("auto_gpu_hours", autos.totals.total_gpu_hours());
    json.AddDouble("auto_migration_gpu_hours", autos.totals.migration_gpu_hours);
    json.AddDouble("auto_goodput_per_gpu_hour", autos.totals.goodput_per_gpu_hour());
    json.AddInt("auto_replans", autos.totals.replans);
    json.AddInt("scale_ups", autos.controller.scale_ups);
    json.AddInt("scale_downs", autos.controller.scale_downs);
    json.AddInt("effective_ups", autos.effective_ups);
    json.AddInt("effective_downs", autos.effective_downs);
    json.AddInt("cooldown_suppressed", autos.controller.cooldown_suppressed);
    json.AddDouble("static_attainment", statics.totals.attainment());
    json.AddDouble("static_gpu_hours", statics.totals.total_gpu_hours());
    json.AddDouble("static_goodput_per_gpu_hour", statics.totals.goodput_per_gpu_hour());
    json.AddDouble("ratio", ratio);
    json.AddBool("wins_gpu_hours", wins_gpu_hours);
    json.AddBool("holds_attainment", holds_attainment);
    json.AddBool("shard_identity", shard_identity);
    // Planner/cache accounting is JSON-only: stdout must stay byte-identical cold vs warm.
    autos.planner.AddJsonFields(json);
    json.AddInt("static_planner_simulations", statics.planner.simulations_run);
    json.AddWallMs(timer);
    if (!json.WriteTo(flags.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", flags.json_path.c_str());
      return 2;
    }
  }

  return (wins_gpu_hours && holds_attainment && controller_active && shard_identity) ? 0 : 1;
}

}  // namespace
}  // namespace distserve::bench

int main(int argc, char** argv) { return distserve::bench::Main(argc, argv); }
