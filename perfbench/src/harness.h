// Measurement and checking helpers for the repository benchmark (perfbench/README.md).
//
// Everything here sits outside the library: host clocks, the percentile rule, the
// benchmark's own host-time spans, the result digest, the output checks that feed
// failure accounting, and the metric list printed as the benchmark's last line.
#ifndef DISTSERVE_PERFBENCH_HARNESS_H_
#define DISTSERVE_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/topology.h"
#include "metrics/collector.h"
#include "placement/placement.h"

namespace distserve::perfbench {

// Host wall seconds on a monotonic clock.
double WallSeconds();
// CPU seconds consumed by the whole process, summed over its threads.
double CpuSeconds();
// Peak resident set size of this process, in MB (2^20 bytes).
double PeakRssMb();

double Median(std::vector<double> values);
// The smallest value (0 for none).
double Fastest(const std::vector<double>& values);

// The percentile rule: report the requested percentile only when at least `min_beyond`
// samples lie above it; otherwise fall back to the highest percentile that has that many,
// i.e. 100 * (1 - min_beyond / samples). Returns 0 when the sample is too small for any
// percentile (samples <= min_beyond). Percentiles are in [0, 100].
double SupportedPercentile(size_t samples, double wanted, size_t min_beyond = 10);

// One span of host time recorded by the benchmark around a call into a library module.
// Names are "<module>.<operation>"; `parent` indexes the enclosing span (-1 for a root).
struct HostSpan {
  std::string name;
  double start = 0.0;  // WallSeconds()
  double end = 0.0;
  int parent = -1;
  uint64_t run_id = 0;
};

// Keeps spans in memory until the benchmark writes them out at exit. Spans nest: Begin
// parents the new span under the innermost span still open, and End must close that
// innermost span (ScopedSpan guarantees it).
class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id) : run_id_(run_id) {}
  int Begin(std::string name);
  void End(int index);
  const std::vector<HostSpan>& spans() const { return spans_; }
  std::string Json() const;

 private:
  uint64_t run_id_;
  std::vector<HostSpan> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction; a null recorder records nothing,
// so the untraced path runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_ = -1;
};

// A span's duration minus the part of its interval that its direct children cover (the
// union of the children's intervals, clipped to the span).
double SelfSeconds(const std::vector<HostSpan>& spans, size_t index);
// Self time summed per module (the span name up to its first '.').
std::map<std::string, double> ModuleSelfSeconds(const std::vector<HostSpan>& spans);

// FNV-1a over the exact bits of what the benchmark produced: plan strings, goodputs and
// Collector records. Equal digests on two commits mean byte-identical results.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(double value);
  void Add(int64_t value);
  void Add(const metrics::Collector& collector);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// Output checks. Each returns an empty string when the result is sound, else what is wrong.
// Every request sent ends exactly once: completed, lost, cancelled or timed out.
std::string CheckConservation(const metrics::Collector& collector, size_t sent);
// The plan fits the cluster and promises a positive per-GPU goodput.
std::string CheckPlan(const placement::PlacementPlan& plan, const cluster::ClusterSpec& cluster);
// Two plans are the same plan, bit for bit.
std::string CheckSamePlan(const placement::PlacementPlan& a, const placement::PlacementPlan& b);
// A traced run produced exactly the untraced run's records.
std::string CheckBitIdentical(const metrics::Collector& untraced,
                              const metrics::Collector& traced);

// Failure accounting: one operation is one plan, one replan or one simulated run.
class Ledger {
 public:
  // Counts one operation; `failure` empty means every check on it passed.
  void Record(const std::string& what, const std::string& failure);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Metrics by name; Json() is the `metrics` object of the result line.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& items() const { return items_; }
  std::string Json() const;

 private:
  std::map<std::string, Metric> items_;
};

// Shortest decimal that reads back as the same double ("null" when not finite).
std::string JsonNumber(double value);
std::string JsonString(std::string_view text);

}  // namespace distserve::perfbench

#endif  // DISTSERVE_PERFBENCH_HARNESS_H_
