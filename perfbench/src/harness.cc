#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <utility>

namespace distserve::perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double SupportedPercentile(size_t samples, double wanted, size_t min_beyond) {
  if (samples <= min_beyond) {
    return 0.0;
  }
  const double highest =
      100.0 * (1.0 - static_cast<double>(min_beyond) / static_cast<double>(samples));
  return std::min(wanted, highest);
}

int SpanRecorder::Begin(std::string name) {
  HostSpan span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run_id = run_id_;
  span.start = WallSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end = WallSeconds();
  open_.pop_back();  // ScopedSpan closes spans innermost first
}

std::string SpanRecorder::Json() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, ", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, ",
                  s.start, s.end, s.parent);
    out += i == 0 ? "\n" : ",\n";
    out += "{\"id\": " + std::to_string(i) + ", \"name\": " + JsonString(s.name) + buf +
           "\"run_id\": \"" + std::to_string(s.run_id) + "\"}";
  }
  out += "\n]\n";
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
  if (recorder_ != nullptr) {
    index_ = recorder_->Begin(std::move(name));
  }
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) {
    recorder_->End(index_);
  }
}

double SelfSeconds(const std::vector<HostSpan>& spans, size_t index) {
  const HostSpan& span = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const HostSpan& s : spans) {
    if (s.parent == static_cast<int>(index)) {
      const double lo = std::max(s.start, span.start);
      const double hi = std::min(s.end, span.end);
      if (hi > lo) {
        children.emplace_back(lo, hi);
      }
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = span.start;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return (span.end - span.start) - covered;
}

std::map<std::string, double> ModuleSelfSeconds(const std::vector<HostSpan>& spans) {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    out[name.substr(0, name.find('.'))] += SelfSeconds(spans, i);
  }
  return out;
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::Add(double value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  Add(std::string_view(bytes, sizeof bytes));
}

void Digest::Add(int64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  Add(std::string_view(bytes, sizeof bytes));
}

void Digest::Add(const metrics::Collector& collector) {
  for (const metrics::RequestRecord& r : collector.records()) {
    Add(static_cast<int64_t>(r.id));
    for (double t : {r.arrival, r.prefill_start, r.first_token, r.transfer_start,
                     r.transfer_end, r.decode_start, r.completion}) {
      Add(t);
    }
  }
  for (const auto* never : {&collector.lost_records(), &collector.cancelled_records(),
                            &collector.timed_out_records()}) {
    Add(static_cast<int64_t>(never->size()));
    for (const metrics::RequestRecord& r : *never) {
      Add(static_cast<int64_t>(r.id));
    }
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

std::string CheckConservation(const metrics::Collector& collector, size_t sent) {
  const size_t ended = collector.count() + collector.lost_count() +
                       collector.cancelled_count() + collector.timed_out_count();
  if (ended == sent) {
    return "";
  }
  return "conservation: completed " + std::to_string(collector.count()) + " + lost " +
         std::to_string(collector.lost_count()) + " + cancelled " +
         std::to_string(collector.cancelled_count()) + " + timed out " +
         std::to_string(collector.timed_out_count()) + " != sent " + std::to_string(sent);
}

std::string CheckPlan(const placement::PlacementPlan& plan,
                      const cluster::ClusterSpec& cluster) {
  if (plan.num_prefill < 1 || plan.num_decode < 1 ||
      plan.total_gpus() > cluster.total_gpus()) {
    return "plan does not fit the cluster (" + std::to_string(cluster.total_gpus()) +
           " GPUs): " + plan.ToString();
  }
  if (!(plan.per_gpu_goodput() > 0.0)) {
    return "plan promises no goodput: " + plan.ToString();
  }
  return "";
}

std::string CheckSamePlan(const placement::PlacementPlan& a, const placement::PlacementPlan& b) {
  Digest da;
  Digest db;
  for (auto [plan, digest] : {std::pair{&a, &da}, std::pair{&b, &db}}) {
    digest->Add(plan->ToString());
    digest->Add(plan->prefill_goodput);
    digest->Add(plan->decode_goodput);
  }
  return da.value() == db.value() ? "" : "plans differ: " + a.ToString() + " vs " + b.ToString();
}

std::string CheckBitIdentical(const metrics::Collector& untraced,
                              const metrics::Collector& traced) {
  return metrics::BitIdentical(untraced, traced) ? ""
                                                 : "traced run differs from the untraced run";
}

void Ledger::Record(const std::string& what, const std::string& failure) {
  ++attempted_;
  if (!failure.empty()) {
    ++failed_;
    std::printf("CHECK FAILED [%s]: %s\n", what.c_str(), failure.c_str());
  }
}

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  items_[name] = Metric{value, unit};
}

std::string MetricSet::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : items_) {
    out += first ? "" : ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace distserve::perfbench
