// Workload generation: turns (arrival process, dataset, seed) into a concrete request trace.
//
// Traces are generated ahead of a simulation run so the same trace can be replayed against
// different systems (DistServe vs the vLLM baseline) — the comparisons in Figures 8, 9 and 11
// hold the trace fixed across systems. Arrival sampling and length sampling use independent
// RNG streams forked from the seed, so varying the rate does not change which lengths a given
// request index receives.
#ifndef DISTSERVE_WORKLOAD_GENERATOR_H_
#define DISTSERVE_WORKLOAD_GENERATOR_H_

#include <cstdint>

#include "workload/arrival.h"
#include "workload/dataset.h"
#include "workload/request.h"

namespace distserve::workload {

struct TraceSpec {
  double rate = 1.0;          // mean requests/second
  double burstiness_cv = 1.0; // 1.0 = Poisson
  int num_requests = 1000;
  uint64_t seed = 42;
};

// Generates `spec.num_requests` requests with arrival times starting at 0.
Trace GenerateTrace(const TraceSpec& spec, const Dataset& dataset);

// Generates a trace with an abrupt workload shift after `shift_after` requests: the remainder
// is drawn from `second` at `second_rate`. Used by the replanning tests and example.
Trace GenerateShiftingTrace(const TraceSpec& spec, const Dataset& first, const Dataset& second,
                            int shift_after, double second_rate);

// Fleet-scale workload: `num_sources` independent arrival processes (think regional
// frontends), each a fixed function of (seed, source) via the Rng jump-ahead scheme —
// source k draws from the arrival/length streams advanced by k * 2^128, so adding sources or
// resizing the fleet never perturbs an existing source's sequence. The merged trace is sorted by (arrival time, source) and re-numbered 0..N-1.
struct FleetTraceSpec {
  double rate_per_source = 1.0;  // mean requests/second per source
  double burstiness_cv = 1.0;    // 1.0 = Poisson
  int requests_per_source = 1000;
  int num_sources = 1;
  uint64_t seed = 42;
};

// One source's sub-trace (ids local 0..requests_per_source-1). Exposed so tests can assert
// the fleet merge is exactly the union of per-source sequences.
Trace GenerateSourceTrace(const FleetTraceSpec& spec, const Dataset& dataset, int source);

// The merged fleet trace: num_sources * requests_per_source requests, globally renumbered.
Trace GenerateFleetTrace(const FleetTraceSpec& spec, const Dataset& dataset);

// Time-varying workload (DESIGN.md §18): arrivals follow `schedule` over [0, horizon) via
// ScheduledArrivals thinning, so the trace's local rate tracks rate(t) — a simulated day of
// diurnal traffic with flash crowds, driving the autoscaler experiments. The request count is
// whatever the schedule produces (≈ integral of rate(t)); ids are 0..N-1 in arrival order and
// the same (seed, schedule) always yields the same trace.
struct ScheduledTraceSpec {
  const RateSchedule* schedule = nullptr;  // required, non-owning
  double burstiness_cv = 1.0;              // 1.0 = non-homogeneous Poisson
  double horizon = 86400.0;                // seconds of simulated wall-clock to cover
  uint64_t seed = 42;
};
Trace GenerateScheduledTrace(const ScheduledTraceSpec& spec, const Dataset& dataset);

// Summary statistics of a trace.
struct TraceStats {
  double duration = 0.0;        // last arrival time
  double mean_input_len = 0.0;
  double mean_output_len = 0.0;
  int max_input_len = 0;
  int max_output_len = 0;
  double observed_rate = 0.0;   // num_requests / duration
};
TraceStats ComputeTraceStats(const Trace& trace);

}  // namespace distserve::workload

#endif  // DISTSERVE_WORKLOAD_GENERATOR_H_
