#include "metrics/collector.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace distserve::metrics {

std::string LatencyBreakdown::ToString() const {
  const double sum = total();
  auto pct = [sum](double x) { return sum > 0.0 ? 100.0 * x / sum : 0.0; };
  std::ostringstream out;
  out << "prefill_queue=" << pct(prefill_queue) << "% prefill_exec=" << pct(prefill_exec)
      << "% transfer=" << pct(transfer) << "% decode_queue=" << pct(decode_queue)
      << "% decode_exec=" << pct(decode_exec) << "%";
  return out.str();
}

std::string FaultStats::ToString() const {
  std::ostringstream out;
  out << "failures=" << instance_failures << "/" << link_failures
      << " recoveries=" << instance_recoveries << "/" << link_recoveries
      << " restarts=" << prefill_restarts << " kv_reprefills=" << kv_reprefills
      << " redispatches=" << decode_redispatches << " transfer_retries=" << transfer_retries
      << " lost=" << requests_lost << " downtime=" << downtime_seconds << "s";
  return out.str();
}

void Collector::Record(const RequestRecord& record) {
  DS_DCHECK(record.first_token >= record.arrival);
  DS_DCHECK(record.completion >= record.first_token);
  records_.push_back(record);
}

void Collector::RecordLost(const RequestRecord& record) {
  lost_.push_back(record);
  ++fault_stats_.requests_lost;
}

void Collector::RecordCancelled(const RequestRecord& record) {
  cancelled_.push_back(record);
  ++scenario_stats_.requests_cancelled;
}

void Collector::RecordTimedOut(const RequestRecord& record) {
  timed_out_.push_back(record);
  ++scenario_stats_.requests_timed_out;
}

std::string ScenarioOutcomeStats::ToString() const {
  std::ostringstream out;
  out << "cancelled=" << requests_cancelled << " timed_out=" << requests_timed_out
      << " preemptions=" << decode_preemptions;
  return out.str();
}

void Collector::Merge(Collector other) {
  const auto append = [](std::vector<RequestRecord>& into, std::vector<RequestRecord>& from) {
    if (into.empty()) {
      into.swap(from);
    } else {
      into.insert(into.end(), from.begin(), from.end());
    }
  };
  append(records_, other.records_);
  // Straight append, not RecordLost: other's fault_stats_.requests_lost already counts these
  // and is summed below.
  append(lost_, other.lost_);
  append(cancelled_, other.cancelled_);
  append(timed_out_, other.timed_out_);
  scenario_stats_.requests_cancelled += other.scenario_stats_.requests_cancelled;
  scenario_stats_.requests_timed_out += other.scenario_stats_.requests_timed_out;
  scenario_stats_.decode_preemptions += other.scenario_stats_.decode_preemptions;
  fault_stats_.instance_failures += other.fault_stats_.instance_failures;
  fault_stats_.instance_recoveries += other.fault_stats_.instance_recoveries;
  fault_stats_.link_failures += other.fault_stats_.link_failures;
  fault_stats_.link_recoveries += other.fault_stats_.link_recoveries;
  fault_stats_.prefill_restarts += other.fault_stats_.prefill_restarts;
  fault_stats_.kv_reprefills += other.fault_stats_.kv_reprefills;
  fault_stats_.decode_redispatches += other.fault_stats_.decode_redispatches;
  fault_stats_.transfer_retries += other.fault_stats_.transfer_retries;
  fault_stats_.requests_lost += other.fault_stats_.requests_lost;
  fault_stats_.downtime_seconds += other.fault_stats_.downtime_seconds;
}

void Collector::SortById() {
  const auto by_id = [](const RequestRecord& a, const RequestRecord& b) { return a.id < b.id; };
  std::sort(records_.begin(), records_.end(), by_id);
  std::sort(lost_.begin(), lost_.end(), by_id);
  std::sort(cancelled_.begin(), cancelled_.end(), by_id);
  std::sort(timed_out_.begin(), timed_out_.end(), by_id);
}

size_t Collector::NeverCompletedCount() const {
  return lost_.size() + cancelled_.size() + timed_out_.size();
}

double Collector::CompletionRate() const {
  const size_t offered = records_.size() + NeverCompletedCount();
  return offered == 0 ? 1.0 : static_cast<double>(records_.size()) / offered;
}

Attainment Collector::ComputeAttainment(const SloSpec& slo) const {
  Attainment result;
  if (records_.empty() && NeverCompletedCount() == 0) {
    return result;
  }
  int64_t both = 0;
  int64_t ttft_ok = 0;
  int64_t tpot_ok = 0;
  for (const RequestRecord& r : records_) {
    const bool t_ok = r.Ttft() <= slo.ttft;
    const bool p_ok = r.Tpot() <= slo.tpot;
    both += (t_ok && p_ok) ? 1 : 0;
    ttft_ok += t_ok ? 1 : 0;
    tpot_ok += p_ok ? 1 : 0;
  }
  const double n = static_cast<double>(records_.size() + NeverCompletedCount());
  result.both = both / n;
  result.ttft_only = ttft_ok / n;
  result.tpot_only = tpot_ok / n;
  return result;
}

Attainment Collector::ComputeAttainmentForPriority(const SloSpec& slo, int priority) const {
  Attainment result;
  int64_t both = 0;
  int64_t ttft_ok = 0;
  int64_t tpot_ok = 0;
  int64_t n = 0;
  for (const RequestRecord& r : records_) {
    if (r.priority != priority) {
      continue;
    }
    ++n;
    const bool t_ok = r.Ttft() <= slo.ttft;
    const bool p_ok = r.Tpot() <= slo.tpot;
    both += (t_ok && p_ok) ? 1 : 0;
    ttft_ok += t_ok ? 1 : 0;
    tpot_ok += p_ok ? 1 : 0;
  }
  for (const std::vector<RequestRecord>* v : {&lost_, &cancelled_, &timed_out_}) {
    for (const RequestRecord& r : *v) {
      n += (r.priority == priority) ? 1 : 0;
    }
  }
  if (n == 0) {
    return result;
  }
  result.both = both / static_cast<double>(n);
  result.ttft_only = ttft_ok / static_cast<double>(n);
  result.tpot_only = tpot_ok / static_cast<double>(n);
  return result;
}

double Collector::GoodputUnderSlo(const SloSpec& slo) const {
  if (records_.empty()) {
    return 0.0;
  }
  int64_t both = 0;
  double first_arrival = records_.front().arrival;
  double last_completion = records_.front().completion;
  for (const RequestRecord& r : records_) {
    if (r.Ttft() <= slo.ttft && r.Tpot() <= slo.tpot) {
      ++both;
    }
    first_arrival = std::min(first_arrival, r.arrival);
    last_completion = std::max(last_completion, r.completion);
  }
  for (const std::vector<RequestRecord>* v : {&lost_, &cancelled_, &timed_out_}) {
    for (const RequestRecord& r : *v) {
      first_arrival = std::min(first_arrival, r.arrival);
    }
  }
  const double span = last_completion - first_arrival;
  return span > 0.0 ? static_cast<double>(both) / span : 0.0;
}

LatencyBreakdown Collector::ComputeBreakdown() const {
  LatencyBreakdown breakdown;
  for (const RequestRecord& r : records_) {
    breakdown.prefill_queue += r.PrefillQueueTime();
    breakdown.prefill_exec += r.PrefillExecTime();
    breakdown.transfer += r.TransferTime();
    breakdown.decode_queue += r.DecodeQueueTime();
    breakdown.decode_exec += r.DecodeExecTime();
  }
  return breakdown;
}

namespace {

PercentileTracker TrackBy(const std::vector<RequestRecord>& records,
                          double (RequestRecord::*fn)() const) {
  PercentileTracker tracker;
  tracker.Reserve(records.size());
  for (const RequestRecord& r : records) {
    tracker.Add((r.*fn)());
  }
  return tracker;
}

}  // namespace

double Collector::TtftPercentile(double q) const {
  return TrackBy(records_, &RequestRecord::Ttft).Percentile(q);
}

double Collector::TpotPercentile(double q) const {
  return TrackBy(records_, &RequestRecord::Tpot).Percentile(q);
}

double Collector::MeanTtft() const { return TrackBy(records_, &RequestRecord::Ttft).Mean(); }

double Collector::MeanTpot() const { return TrackBy(records_, &RequestRecord::Tpot).Mean(); }

std::vector<double> Collector::SortedTransferTimes() const {
  std::vector<double> times;
  times.reserve(records_.size());
  for (const RequestRecord& r : records_) {
    times.push_back(r.TransferTime());
  }
  std::sort(times.begin(), times.end());
  return times;
}

double Collector::CompletedThroughput() const {
  if (records_.empty()) {
    return 0.0;
  }
  double first_arrival = records_.front().arrival;
  double last_completion = records_.front().completion;
  for (const RequestRecord& r : records_) {
    first_arrival = std::min(first_arrival, r.arrival);
    last_completion = std::max(last_completion, r.completion);
  }
  const double span = last_completion - first_arrival;
  return span > 0.0 ? static_cast<double>(records_.size()) / span : 0.0;
}

bool BitIdentical(const Collector& a, const Collector& b) {
  if (a.count() != b.count() || a.lost_count() != b.lost_count() ||
      a.cancelled_count() != b.cancelled_count() ||
      a.timed_out_count() != b.timed_out_count()) {
    return false;
  }
  for (auto [va, vb] : {std::pair{&a.cancelled_records(), &b.cancelled_records()},
                        std::pair{&a.timed_out_records(), &b.timed_out_records()}}) {
    for (size_t i = 0; i < va->size(); ++i) {
      if ((*va)[i].id != (*vb)[i].id || (*va)[i].arrival != (*vb)[i].arrival) {
        return false;
      }
    }
  }
  for (size_t i = 0; i < a.count(); ++i) {
    const RequestRecord& ra = a.records()[i];
    const RequestRecord& rb = b.records()[i];
    if (ra.id != rb.id || ra.arrival != rb.arrival || ra.prefill_start != rb.prefill_start ||
        ra.first_token != rb.first_token || ra.transfer_start != rb.transfer_start ||
        ra.transfer_end != rb.transfer_end || ra.decode_start != rb.decode_start ||
        ra.completion != rb.completion) {
      return false;
    }
  }
  return true;
}

}  // namespace distserve::metrics
