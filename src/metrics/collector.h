// Per-request lifecycle records and the evaluation metrics of §6.
//
// A request's life in DistServe has five stages (§6.3): prefill queuing, prefill execution,
// KV-cache transmission, decoding queuing, and decoding execution. The engine stamps each
// boundary; this module derives TTFT / TPOT, SLO attainment (both SLOs, and each SLO alone —
// the dotted/dashed curves of Figure 8), latency percentiles, the stage breakdown of
// Figure 10a, and the transfer-time CDF of Figure 10b.
#ifndef DISTSERVE_METRICS_COLLECTOR_H_
#define DISTSERVE_METRICS_COLLECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "workload/request.h"

namespace distserve::metrics {

struct RequestRecord {
  workload::RequestId id = 0;
  double arrival = 0.0;
  int input_len = 0;
  int output_len = 0;
  int priority = 0;  // tenant class (workload::Request::priority); 0 = best-effort

  double prefill_start = 0.0;   // prefill execution begins (leaves prefill queue)
  double first_token = 0.0;     // prefill completes = first output token ready
  double transfer_start = 0.0;  // KV-cache pull begins (equals transfer_end when colocated)
  double transfer_end = 0.0;
  double decode_start = 0.0;    // joins a decode batch (first decode step begins)
  double completion = 0.0;      // last token generated

  // Time to first token: prefill queueing + execution (+ any dispatch delay).
  double Ttft() const { return first_token - arrival; }

  // Time per output token over the decode phase; 0 for single-token outputs.
  double Tpot() const {
    if (output_len <= 1) {
      return 0.0;
    }
    return (completion - first_token) / static_cast<double>(output_len - 1);
  }

  double PrefillQueueTime() const { return prefill_start - arrival; }
  double PrefillExecTime() const { return first_token - prefill_start; }
  double TransferTime() const { return transfer_end - transfer_start; }
  double DecodeQueueTime() const { return decode_start - transfer_end; }
  double DecodeExecTime() const { return completion - decode_start; }
  double TotalLatency() const { return completion - arrival; }
};

// Latency requirements of an application (Table 1).
struct SloSpec {
  double ttft = 0.0;  // seconds
  double tpot = 0.0;  // seconds

  SloSpec Scaled(double scale) const { return SloSpec{ttft * scale, tpot * scale}; }
};

// Fractions of requests meeting the SLOs.
struct Attainment {
  double both = 0.0;
  double ttft_only = 0.0;  // fraction meeting the TTFT SLO (regardless of TPOT)
  double tpot_only = 0.0;  // fraction meeting the TPOT SLO (regardless of TTFT)
};

// Fault-injection outcome counters (the availability/degraded-goodput view of a run with a
// serving::FaultPlan; all zero on fault-free runs).
struct FaultStats {
  int64_t instance_failures = 0;   // prefill/decode kFail events applied
  int64_t instance_recoveries = 0;
  int64_t link_failures = 0;
  int64_t link_recoveries = 0;
  int64_t prefill_restarts = 0;    // requests restarted from scratch (died mid-prefill)
  int64_t kv_reprefills = 0;       // finished prefills re-run because their KV was lost
  int64_t decode_redispatches = 0; // decode-side re-routes that kept the prefill KV copy
  int64_t transfer_retries = 0;    // pull reissues after a timeout on a dead link
  int64_t requests_lost = 0;       // failed fast: retry exhaustion with no healthy route
  double downtime_seconds = 0.0;   // summed per-component dead time within the run

  bool any() const {
    return instance_failures > 0 || link_failures > 0 || requests_lost > 0;
  }
  std::string ToString() const;  // one line of counters
};

// Scenario outcome counters (multi-tenant preemption and client abandonment; all zero when
// the scenario passes are off).
struct ScenarioOutcomeStats {
  int64_t requests_cancelled = 0;  // client cancelled before completion
  int64_t requests_timed_out = 0;  // missed their completion deadline
  int64_t decode_preemptions = 0;  // decode-queue evictions by a higher-priority tenant

  bool any() const {
    return requests_cancelled > 0 || requests_timed_out > 0 || decode_preemptions > 0;
  }
  std::string ToString() const;  // one line of counters
};

// Sums of time spent by all requests in each lifecycle stage (Figure 10a).
struct LatencyBreakdown {
  double prefill_queue = 0.0;
  double prefill_exec = 0.0;
  double transfer = 0.0;
  double decode_queue = 0.0;
  double decode_exec = 0.0;

  double total() const {
    return prefill_queue + prefill_exec + transfer + decode_queue + decode_exec;
  }
  std::string ToString() const;  // percentages, one line
};

class Collector {
 public:
  void Record(const RequestRecord& record);
  void Reserve(size_t n) { records_.reserve(n); }

  // Records a request that never completed (failed fast under faults). Lost requests count
  // against attainment and availability but appear in no latency statistic — their partial
  // timestamps are meaningless.
  void RecordLost(const RequestRecord& record);

  // Client abandonment outcomes. Like lost requests, cancelled/timed-out requests count
  // against attainment (an abandoned request meets no SLO) but appear in no latency
  // statistic — they have no completion.
  void RecordCancelled(const RequestRecord& record);
  void RecordTimedOut(const RequestRecord& record);

  size_t count() const { return records_.size(); }
  const std::vector<RequestRecord>& records() const { return records_; }
  size_t lost_count() const { return lost_.size(); }
  const std::vector<RequestRecord>& lost_records() const { return lost_; }
  size_t cancelled_count() const { return cancelled_.size(); }
  const std::vector<RequestRecord>& cancelled_records() const { return cancelled_; }
  size_t timed_out_count() const { return timed_out_.size(); }
  const std::vector<RequestRecord>& timed_out_records() const { return timed_out_; }

  // lost + cancelled + timed out: every offered request that never completed.
  size_t NeverCompletedCount() const;

  // Folds `other` into this collector: appends its completed and lost records and sums its
  // fault counters. The fleet merge (serving/fleet.cc) re-sorts by request id afterwards; call
  // order therefore only affects FaultStats summation order, which callers keep fixed (group
  // index order) for bit-identical totals.
  void Merge(const Collector& other);

  // Re-sorts completed and lost records by request id — the canonical order after a Merge,
  // independent of how requests were partitioned across groups.
  void SortById();

  // Fault counters, populated by the serving system during a faulted run.
  FaultStats& fault_stats() { return fault_stats_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  // Scenario counters, populated by the serving system when tenants/cancellation are on.
  ScenarioOutcomeStats& scenario_stats() { return scenario_stats_; }
  const ScenarioOutcomeStats& scenario_stats() const { return scenario_stats_; }

  // Completed / offered: 1.0 when nothing was lost, cancelled, or timed out.
  double CompletionRate() const;

  // Attainment denominators include lost, cancelled, and timed-out requests (a request that
  // never completed meets no SLO).
  Attainment ComputeAttainment(const SloSpec& slo) const;
  // Attainment restricted to one tenant class (RequestRecord::priority == priority), with the
  // same never-completed denominators. The per-class goodput view of fig_scenarios.
  Attainment ComputeAttainmentForPriority(const SloSpec& slo, int priority) const;
  LatencyBreakdown ComputeBreakdown() const;

  // Degraded goodput: requests completing within both SLOs per second of span (first arrival
  // to last completion). Equals attainment.both * CompletedThroughput-style rate, directly
  // comparable across fault severities.
  double GoodputUnderSlo(const SloSpec& slo) const;

  double TtftPercentile(double q) const;
  double TpotPercentile(double q) const;
  double MeanTtft() const;
  double MeanTpot() const;

  // Sorted KV-transfer durations (Figure 10b CDF).
  std::vector<double> SortedTransferTimes() const;

  // Requests per second completed over the span from first arrival to last completion.
  double CompletedThroughput() const;

 private:
  std::vector<RequestRecord> records_;
  std::vector<RequestRecord> lost_;
  std::vector<RequestRecord> cancelled_;
  std::vector<RequestRecord> timed_out_;
  FaultStats fault_stats_;
  ScenarioOutcomeStats scenario_stats_;
};

// True when both collectors hold the same completed records with bitwise-equal timestamps
// (and equal lost/cancelled/timed-out record ids). The determinism exhibits (fig13's no-fault
// check, the trace bit-identity test) rely on this being exact FP equality, not
// tolerance-based.
bool BitIdentical(const Collector& a, const Collector& b);

}  // namespace distserve::metrics

#endif  // DISTSERVE_METRICS_COLLECTOR_H_
