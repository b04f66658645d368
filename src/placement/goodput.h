// Goodput measurement: the maximum request rate a configuration sustains while meeting the
// SLO-attainment target (the paper's per-GPU goodput metric, §1).
//
// The paper "enumerates the placements via binary search and finds the maximum rate that meets
// the SLO attainment target with simulation trials" (§4.1). FindMaxRate does exactly that: an
// exponential probe to bracket the knee, then bisection; each probe resamples a trace at the
// candidate rate from the workload distribution (as the paper does). Probe traces are built
// through an optional workload::TraceCache, which keeps the seed's rate-free draws and only
// rescales the gaps per probe — the dozens of searches a planner runs against different
// parallelism configs would otherwise redraw the same requests for every probe.
//
// `rate_hint` warm-starts the exponential probe near a previously measured rate for the same
// configuration (replanning after traffic drift). The probe stays on the same lattice and
// walks to the same pass/fail boundary, so for attainment functions that are non-increasing
// in rate — which the SLO simulators are, up to sampling noise — the result is identical to
// the cold search; the hint only changes how many probes it takes to get there.
#ifndef DISTSERVE_PLACEMENT_GOODPUT_H_
#define DISTSERVE_PLACEMENT_GOODPUT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "workload/generator.h"
#include "workload/trace_cache.h"

namespace distserve::placement {

struct GoodputSearchOptions {
  double attainment_target = 0.9;
  double rate_floor = 0.02;   // below this the config is considered useless
  double rate_probe = 1.0;    // initial probe rate (anchor of the probe lattice)
  int bisection_iters = 10;
  // Trace sizing: at least `num_requests`, grown so the trace spans `min_trace_duration`
  // virtual seconds at the candidate rate (decode residence is tens of seconds, so short
  // traces never reach steady state and wildly overestimate goodput), capped at
  // `max_requests` to bound planner cost on hopeless high-rate probes.
  int num_requests = 400;
  double min_trace_duration = 60.0;
  int max_requests = 20000;
  double burstiness_cv = 1.0;
  uint64_t seed = 1234;

  // Shared probe-trace draws (non-owning; may be null). Traces built from them are
  // bit-identical to fresh generation, so enabling the cache never changes results. The
  // search only builds from it (TraceCache::Build) and counts no hits: a caller that reports
  // them counts GoodputSearchStats::probe_specs itself (TraceCache::Count). The planner does
  // so for the searches its fold keeps, in fold order, so its count does not depend on which
  // speculative searches happened to run.
  workload::TraceCache* trace_cache = nullptr;

  // When > 0 (and finite; anything else is ignored), start the exponential probe at the
  // lattice point nearest this rate instead of at rate_probe. Two sources today: the
  // previous search's result for the same config (replanning after traffic drift), and —
  // on cold searches — the tier-1 analytic estimate of the config's max rate
  // (placement/analytic_tier.h). Callers with an analytic rate bound should clamp the hint
  // to it first — a hint loaded from disk can predate a recalibration (see algorithms.cc).
  double rate_hint = 0.0;

  // When > 0 (and finite), the search short-circuits as soon as a PASSING probe's rate
  // reaches this cap, returning that probe's rate. Exact for any caller that clamps the
  // result to the same cap: the search's running result only ever increases and is always a
  // passing rate, so the uncut search would have returned some R >= the passing probe >=
  // cap, and min(R, cap) == cap == min(early_exit_rate, cap) — bit for bit, with no
  // monotonicity assumption on the attainment function. This is what collapses "cap-out"
  // searches (decode configs whose attainment never fails at any probe rate) from a full
  // exponential walk to the rate ceiling into one or two probes. The placement search sets
  // it to the tier-1 analytic cap it already clamps results to (see algorithms.cc); leave 0
  // to resolve the raw rate fully.
  double rate_cap = 0.0;
};

// Cost accounting for one search (Figure 12 / PlannerResult reporting).
struct GoodputSearchStats {
  int probes = 0;  // attainment evaluations (trace simulations requested)
  std::vector<workload::TraceSpec> probe_specs;  // every probe's trace, in probe order
};

// `attainment_at(trace)` returns the joint SLO attainment for one trace, or any value on the
// same side of `options.attainment_target` as it: FindMaxRate only ever tests
// `attainment_at(trace) >= attainment_target`, so a probe may stop as soon as its verdict is
// decided and report a bound instead (see AttainmentVerdict). Returns the largest rate
// (requests/second) whose attainment meets the target, or 0 when even rate_floor fails.
double FindMaxRate(const std::function<double(const workload::Trace&)>& attainment_at,
                   const workload::Dataset& dataset, const GoodputSearchOptions& options,
                   GoodputSearchStats* stats = nullptr);

// Early-exit SLO verdict for one probe of `n` requests: counts hits (value <= slo) and misses
// as a simulator finishes requests, and settles as soon as `attainment >= target` is decided
// whatever the remaining requests do.
//
// `need` is the smallest k with double(k)/double(n) >= target (n + 1 when no k <= n
// qualifies). Division by n is monotone in k, so the verdict passes exactly when ok >= need
// and fails exactly when ok < need, i.e. once miss > n - need. attainment() returns ok/n on a
// pass and (n - miss)/n on a fail: both are on the same side of the target as the exact
// attainment ok_final/n, and equal to it once every request is recorded.
class AttainmentVerdict {
 public:
  AttainmentVerdict(int64_t n, double slo, double target);

  // Records one finished request's metric (TTFT or TPOT); returns settled().
  bool Record(double value) {
    if (value <= slo_) {
      ++ok_;
    } else {
      ++miss_;
    }
    return settled();
  }
  bool settled() const { return ok_ >= need_ || miss_ > n_ - need_; }
  // The verdict's attainment bound (exact once every request is recorded); 0 for n == 0.
  double attainment() const;

 private:
  int64_t n_;
  double slo_;
  int64_t need_;
  int64_t ok_ = 0;
  int64_t miss_ = 0;
};

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_GOODPUT_H_
