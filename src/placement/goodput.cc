#include "placement/goodput.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace distserve::placement {

namespace {
// Probes above this rate are "effectively unbounded for this trial size" (legacy cap).
constexpr double kRateCeiling = 1e5;
}  // namespace

double FindMaxRate(const std::function<double(const workload::Trace&)>& attainment_at,
                   const workload::Dataset& dataset, const GoodputSearchOptions& options,
                   GoodputSearchStats* stats) {
  DS_CHECK(attainment_at != nullptr);
  DS_CHECK_GT(options.rate_floor, 0.0);
  DS_CHECK_GT(options.rate_probe, 0.0);
  // std::clamp below is undefined unless num_requests <= max_requests.
  DS_CHECK_GT(options.num_requests, 0);
  DS_CHECK_LE(options.num_requests, options.max_requests);
  auto attainment_at_rate = [&](double rate) {
    workload::TraceSpec spec;
    spec.rate = rate;
    spec.burstiness_cv = options.burstiness_cv;
    const double wanted = rate * options.min_trace_duration;
    spec.num_requests = static_cast<int>(std::clamp<double>(
        wanted, options.num_requests, options.max_requests));
    spec.seed = options.seed;
    if (stats != nullptr) {
      ++stats->probes;
      stats->probe_specs.push_back(spec);
    }
    if (options.trace_cache != nullptr) {
      return attainment_at(options.trace_cache->Build(spec, dataset));
    }
    return attainment_at(workload::GenerateTrace(spec, dataset));
  };
  // The exponential-probe lattice: rate_probe * 2^k. Keeping every probe on this lattice —
  // warm-started or not — repeats trace specs across configs (trace cache hits) and keeps
  // hinted searches on the same pass/fail boundary as cold ones.
  auto lattice = [&](int k) { return options.rate_probe * std::ldexp(1.0, k); };
  // Cap-out short-circuit (see GoodputSearchOptions::rate_cap): `capped(r)` is checked
  // exactly when r has just been established as a passing rate, i.e. whenever the running
  // result `lo` is raised. Since the uncut search can only return a value >= any passing
  // probe, exiting with r here is indistinguishable from the full walk to a caller that
  // clamps the result to the cap.
  const bool has_cap = options.rate_cap > 0.0 && std::isfinite(options.rate_cap);
  auto capped = [&](double passing_rate) { return has_cap && passing_rate >= options.rate_cap; };

  double lo;
  int first_fail_k;  // hi = lattice(first_fail_k)
  // Non-finite hints (possible once hints round-trip through external storage) would poison
  // the lattice-index arithmetic below; treat them as "no hint" and run the cold probe.
  if (options.rate_hint > 0.0 && std::isfinite(options.rate_hint)) {
    int k0 = std::max(
        0, static_cast<int>(std::lround(std::log2(options.rate_hint / options.rate_probe))));
    while (k0 > 0 && lattice(k0) > kRateCeiling) {
      --k0;
    }
    if (attainment_at_rate(lattice(k0)) >= options.attainment_target) {
      // Walk up to the first failing lattice point (identical to the cold walk from k0).
      lo = lattice(k0);
      if (capped(lo)) {
        return lo;
      }
      int k = k0 + 1;
      while (true) {
        if (lattice(k) > kRateCeiling) {
          return lo;  // effectively unbounded for this trial size
        }
        if (attainment_at_rate(lattice(k)) < options.attainment_target) {
          break;
        }
        lo = lattice(k);
        if (capped(lo)) {
          return lo;
        }
        ++k;
      }
      first_fail_k = k;
    } else {
      // Walk down to the last passing lattice point.
      int k = k0 - 1;
      while (k >= 0 && attainment_at_rate(lattice(k)) < options.attainment_target) {
        --k;
      }
      if (k < 0) {
        if (attainment_at_rate(options.rate_floor) < options.attainment_target) {
          return 0.0;
        }
        lo = options.rate_floor;
        first_fail_k = 0;
      } else {
        lo = lattice(k);
        if (capped(lo)) {
          return lo;
        }
        first_fail_k = k + 1;
      }
    }
  } else {
    if (attainment_at_rate(options.rate_floor) < options.attainment_target) {
      return 0.0;
    }
    // Exponential probe for the first failing rate.
    lo = options.rate_floor;
    int k = 0;
    while (attainment_at_rate(lattice(k)) >= options.attainment_target) {
      lo = lattice(k);
      if (capped(lo)) {
        return lo;
      }
      ++k;
      if (lattice(k) > kRateCeiling) {
        return lo;  // effectively unbounded for this trial size
      }
    }
    first_fail_k = k;
  }
  // Bisection between the last passing and first failing rates.
  double hi = lattice(first_fail_k);
  for (int i = 0; i < options.bisection_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (attainment_at_rate(mid) >= options.attainment_target) {
      lo = mid;
      if (capped(lo)) {
        return lo;
      }
    } else {
      hi = mid;
    }
  }
  return lo;
}

AttainmentVerdict::AttainmentVerdict(int64_t n, double slo, double target)
    : n_(n), slo_(slo) {
  DS_CHECK_GE(n, 0);
  const double nd = static_cast<double>(n);
  auto passes = [&](int64_t k) { return static_cast<double>(k) / nd >= target; };
  if (!passes(n)) {
    need_ = n + 1;  // no count passes (target > 1, NaN, or n == 0): fails at once
  } else if (passes(0)) {
    need_ = 0;  // every count passes
  } else {
    // Invariant: !passes(lo) && passes(hi).
    int64_t lo = 0;
    int64_t hi = n;
    while (hi - lo > 1) {
      const int64_t mid = lo + (hi - lo) / 2;
      (passes(mid) ? hi : lo) = mid;
    }
    need_ = hi;
  }
}

double AttainmentVerdict::attainment() const {
  DS_DCHECK(settled());
  if (n_ == 0) {
    return 0.0;
  }
  const int64_t count = ok_ >= need_ ? ok_ : n_ - miss_;
  return static_cast<double>(count) / static_cast<double>(n_);
}

}  // namespace distserve::placement
