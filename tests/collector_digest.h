// FNV-1a digest of a metrics::Collector for golden tests: every record of every outcome list
// (timestamps bit for bit), the fault counters and the scenario counters.
#ifndef DISTSERVE_TESTS_COLLECTOR_DIGEST_H_
#define DISTSERVE_TESTS_COLLECTOR_DIGEST_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "metrics/collector.h"

namespace distserve::golden {

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(double d) { Add(std::bit_cast<uint64_t>(d)); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

inline void AddRecords(Fnv* fnv, const std::vector<metrics::RequestRecord>& records) {
  fnv->Add(static_cast<uint64_t>(records.size()));
  for (const metrics::RequestRecord& r : records) {
    fnv->Add(static_cast<int64_t>(r.id));
    fnv->Add(r.arrival);
    fnv->Add(r.input_len);
    fnv->Add(r.output_len);
    fnv->Add(r.priority);
    fnv->Add(r.prefill_start);
    fnv->Add(r.first_token);
    fnv->Add(r.transfer_start);
    fnv->Add(r.transfer_end);
    fnv->Add(r.decode_start);
    fnv->Add(r.completion);
  }
}

inline uint64_t CollectorDigest(const metrics::Collector& c) {
  Fnv fnv;
  AddRecords(&fnv, c.records());
  AddRecords(&fnv, c.lost_records());
  AddRecords(&fnv, c.cancelled_records());
  AddRecords(&fnv, c.timed_out_records());
  const metrics::FaultStats& f = c.fault_stats();
  for (int64_t v : {f.instance_failures, f.instance_recoveries, f.link_failures,
                    f.link_recoveries, f.prefill_restarts, f.kv_reprefills,
                    f.decode_redispatches, f.transfer_retries, f.requests_lost}) {
    fnv.Add(v);
  }
  fnv.Add(f.downtime_seconds);
  const metrics::ScenarioOutcomeStats& s = c.scenario_stats();
  for (int64_t v : {s.requests_cancelled, s.requests_timed_out, s.decode_preemptions}) {
    fnv.Add(v);
  }
  return fnv.value();
}

}  // namespace distserve::golden

#endif  // DISTSERVE_TESTS_COLLECTOR_DIGEST_H_
