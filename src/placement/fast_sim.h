// The fast placement simulator (§4.1 "Simulator building").
//
// Algorithm 1/2 evaluate hundreds of candidate configurations, each via a goodput binary
// search — too many trials for the full DES engine. This module is a second, independent
// implementation of the serving physics as plain loops over a trace: no event queue, no KV
// transfer, no per-block memory accounting (token-granular reservations instead). It plays the
// role of the paper's simulator; the engine-level DES plays the role of their real system, and
// bench_tab2_simulator_accuracy compares the two exactly as the paper's Table 2 does.
//
// Approximations (versus the engine): round-robin dispatch instead of shortest-queue /
// least-loaded, zero transfer time, token-granular memory. The paper reports <2% attainment
// error for its simulator; ours lands in the same range because both implementations share the
// Appendix-A latency model, which dominates.
#ifndef DISTSERVE_PLACEMENT_FAST_SIM_H_
#define DISTSERVE_PLACEMENT_FAST_SIM_H_

#include <cstdint>
#include <vector>

#include "metrics/collector.h"
#include "model/latency_model.h"
#include "workload/request.h"

namespace distserve::placement {

// Per-request outcome of a fast simulation.
struct FastRecord {
  double ttft = 0.0;
  double tpot = 0.0;
};

// Joint/marginal SLO attainment over fast records.
metrics::Attainment FastAttainment(const std::vector<FastRecord>& records,
                                   const metrics::SloSpec& slo);

// Every entry point below prices each step straight through the LatencyModel: it evaluates
// in tens of nanoseconds and batch signatures rarely repeat, so a memo would not pay
// (DESIGN.md §12).

// Prefill-only instance: FCFS, L_m-aware batching, pipeline-bubble cadence. Returns, per
// request (trace order), the absolute first-token time.
std::vector<double> SimulatePrefillFinishTimes(const model::LatencyModel& lm,
                                               const workload::Trace& trace,
                                               int64_t target_tokens, int max_batch_size);

// Decode-only instance: requests arrive at `ready_times` (first token already produced; an
// empty vector means each request is ready at its arrival time), admission reserves the full
// final context against `kv_capacity_tokens`, and the batch steps at the micro-batch lane
// cadence. Returns per-request TPOT (0 for single-token outputs).
//
// `batched_steps` selects the probe-loop implementation. true (default) is the step-indexed
// kernel every planner probe runs: the instance keeps one global decode-step counter, and
// each resident request sits in a min-heap keyed on finish_step = admit_step + output_len - 1
// with context ctx_base + step, ctx_base = (input_len + 1) - admit_step. A run of steps with
// constant membership ends at the heap top's finish step (O(1)) or at the next admission;
// one LatencyModel::DecodeRunPricer per run prices its steps one at a time as they are taken
// (the lane batch is fixed, so only the decode-attention term moves with the context), the
// context sum grows by batch per step, and only finishing requests are popped (O(log B)
// each). A probe costs O(steps + N log B) bookkeeping instead of the O(steps x batch) of
// stepping every resident request. false keeps the original per-step scalar loop. Results
// are bit-identical: step times match (the pricer mirrors the scalar arithmetic) and
// accumulate in the same order, runs stop exactly at the scalar loop's membership changes,
// and the order of completions within a step cannot matter because the context sum and KV
// usage are exact integer sums and each TPOT is written by index. tiered_search_test asserts
// it; the flag exists for that test and the micro-benchmark ablation, not for behavior.
std::vector<double> SimulateDecodeTpots(const model::LatencyModel& lm,
                                        int64_t kv_capacity_tokens,
                                        const workload::Trace& trace,
                                        const std::vector<double>& ready_times,
                                        int max_batch_size, bool batched_steps = true);

// Verdict probes for FindMaxRate: the share of requests whose TTFT (prefill) or TPOT (decode)
// is <= `slo`, from the same kernels as SimulatePrefillFinishTimes / SimulateDecodeTpots (the
// step-indexed one), but each stops as soon as `attainment >= target` is decided and returns
// AttainmentVerdict::attainment(): exact when the simulation ran to the end, otherwise a
// bound on the same side of `target` (goodput.h). No per-request result vector is allocated.
double SimulatePrefillAttainment(const model::LatencyModel& lm, const workload::Trace& trace,
                                 int64_t target_tokens, int max_batch_size, double ttft_slo,
                                 double target);

double SimulateDecodeAttainment(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                                const workload::Trace& trace,
                                const std::vector<double>& ready_times, int max_batch_size,
                                double tpot_slo, double target);

struct DisaggregatedFastConfig {
  int num_prefill = 1;
  int num_decode = 1;
  int64_t prefill_target_tokens = 512;
  int prefill_max_batch = 64;
  int64_t decode_kv_capacity_tokens = 0;
  int decode_max_batch = 512;
};

// Full disaggregated pipeline: round-robin over prefill instances, then round-robin over
// decode instances with arrivals at prefill completion.
std::vector<FastRecord> SimulateDisaggregated(const model::LatencyModel& prefill_lm,
                                              const model::LatencyModel& decode_lm,
                                              const workload::Trace& trace,
                                              const DisaggregatedFastConfig& config);

struct ColocatedFastConfig {
  int num_instances = 1;
  int64_t kv_capacity_tokens = 0;
  int max_batch_size = 256;
  int64_t max_prefill_tokens_per_step = 4096;
  // Sarathi-style chunked prefill: per-step token budget shared by resident decodes (one
  // token each) and prompt chunks filling the remainder. 0 (default) = vLLM prefill-priority
  // scheduling with monolithic prompts; > 0 mirrors ColocatedInstance's kChunked mode with
  // Options::chunk_budget.
  int64_t chunk_budget = 0;
  // Per-iteration host overhead (see ColocatedInstance::Options::cpu_overhead_per_step).
  double cpu_overhead_per_step = 0.0;
};

// Colocated (vLLM-style) continuous batching: mixed prefill+decode steps, monolithic prompts
// (or chunked prompts piggybacked on decodes when chunk_budget > 0).
std::vector<FastRecord> SimulateColocated(const model::LatencyModel& lm,
                                          const workload::Trace& trace,
                                          const ColocatedFastConfig& config);

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_FAST_SIM_H_
