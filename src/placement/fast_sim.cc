#include "placement/fast_sim.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "common/prof.h"
#include "placement/goodput.h"

namespace distserve::placement {

using model::BatchWorkload;

namespace {

// A strided/indexed read-only view of a trace. The round-robin splitters used to copy each
// instance's sub-trace (one full Request copy per request per instance, repeated for every
// rate probe of the placement search); a view carries only an index vector and reads the
// shared trace in place.
class TraceView {
 public:
  explicit TraceView(const workload::Trace& trace) : trace_(&trace) {}
  TraceView(const workload::Trace& trace, std::span<const size_t> idx)
      : trace_(&trace), idx_(idx), identity_(false) {}

  size_t size() const { return identity_ ? trace_->size() : idx_.size(); }
  const workload::Request& operator[](size_t k) const {
    return (*trace_)[identity_ ? k : idx_[k]];
  }
  // Position of view element `k` in the underlying trace.
  size_t global(size_t k) const { return identity_ ? k : idx_[k]; }

 private:
  const workload::Trace* trace_;
  std::span<const size_t> idx_;
  bool identity_ = true;
};

// The kernels below either return every request's result (verdict == nullptr) or, as
// FindMaxRate probes, record each request's TTFT/TPOT into `verdict` as it finishes, stop once
// the verdict settles and return an empty vector. Recording past the settle point cannot
// flip a verdict (ok or miss only grow), so the loops check it once per batch or run.
bool Settled(const AttainmentVerdict* verdict) {
  return verdict != nullptr && verdict->settled();
}

std::vector<double> PrefillFinishTimesView(const model::LatencyModel& lm, const TraceView& trace,
                                           int64_t target_tokens, int max_batch_size,
                                           AttainmentVerdict* verdict) {
  DS_PROF_ZONE("fast_sim.prefill");
  std::vector<double> finish(verdict == nullptr ? trace.size() : 0, 0.0);
  const int pp = lm.par().pp;
  size_t i = 0;
  double stage0_free = 0.0;
  double prev_entry = 0.0;
  double prev_stage = 0.0;
  bool first_batch = true;
  while (i < trace.size() && !Settled(verdict)) {
    const double launch = std::max(trace[i].arrival_time, stage0_free);
    // L_m-aware FCFS batch formation over requests already arrived at launch time. The
    // workload accumulates inline, in admission order — the same summation order
    // BatchWorkload::Prefill uses, so the FP totals are identical.
    BatchWorkload workload;
    int batch_count = 0;
    size_t j = i;
    int64_t tokens = 0;
    while (j < trace.size() && batch_count < max_batch_size) {
      const workload::Request& r = trace[j];
      if (r.arrival_time > launch) {
        break;
      }
      const bool is_head = batch_count == 0;
      if (!is_head && tokens + r.input_len > target_tokens) {
        break;
      }
      // Cached prefixes skip compute (the uncached suffix attends over the full prompt:
      // sq = (L-C)*L, exactly L*L when C == 0) while the batching budget keeps counting
      // full prompts — mirroring the engine's batch former.
      const int64_t computed = r.input_len - r.cached_prefix_len;
      workload.prefill_tokens += computed;
      workload.prefill_sq_tokens +=
          static_cast<double>(computed) * static_cast<double>(r.input_len);
      ++batch_count;
      tokens += r.input_len;
      ++j;
      if (is_head && r.input_len >= target_tokens) {
        break;  // over-length prompts run alone
      }
    }
    const double stage_time = lm.StageTime(workload);
    const double full_time = lm.FullTime(workload);
    double entry = launch;
    if (!first_batch && pp > 1 && prev_stage > stage_time) {
      entry = std::max(entry,
                       prev_entry + prev_stage +
                           static_cast<double>(pp - 1) * (prev_stage - stage_time));
    }
    const double batch_finish = entry + full_time;
    for (size_t k = i; k < j; ++k) {
      if (verdict != nullptr) {
        verdict->Record(batch_finish - trace[k].arrival_time);
      } else {
        finish[k] = batch_finish;
      }
    }
    stage0_free = entry + stage_time;
    prev_entry = entry;
    prev_stage = stage_time;
    first_batch = false;
    i = j;
  }
  return finish;
}

std::vector<double> DecodeTpotsView(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                                    const TraceView& trace, std::span<const double> ready_times,
                                    int max_batch_size, bool batched_steps,
                                    AttainmentVerdict* verdict) {
  DS_PROF_ZONE("fast_sim.decode");
  DS_CHECK(ready_times.empty() || ready_times.size() == trace.size());
  DS_CHECK_GT(max_batch_size, 0);
  // An empty span means every request is ready at its arrival (planner decode probes).
  const auto ready = [&](size_t idx) {
    return ready_times.empty() ? trace[idx].arrival_time : ready_times[idx];
  };
  std::vector<double> tpot(verdict == nullptr ? trace.size() : 0, 0.0);
  // Every request's TPOT is produced exactly once, through here.
  auto finish = [&](size_t idx, double value) {
    if (verdict != nullptr) {
      verdict->Record(value);
    } else {
      tpot[idx] = value;
    }
  };

  // Admission order: by readiness (FCFS at the decode instance). Requests whose full context
  // can never fit this pool score an infinite TPOT — the configuration simply cannot serve
  // them, which the goodput search turns into a low attainment rather than an error.
  std::vector<size_t> order;
  order.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].output_len < 2) {
      finish(i, 0.0);
      continue;
    }
    if (trace[i].total_len() > kv_capacity_tokens) {
      finish(i, std::numeric_limits<double>::infinity());
      continue;
    }
    order.push_back(i);
  }
  // Planner probes pass arrival-ordered traces, so the order is usually sorted already; a
  // stable sort of a sorted range is the identity, ties included.
  const auto earlier = [&](size_t a, size_t b) { return ready(a) < ready(b); };
  if (!std::is_sorted(order.begin(), order.end(), earlier)) {
    std::stable_sort(order.begin(), order.end(), earlier);
  }

  // Scalar path: resident requests, each stepped and compacted in place every step.
  struct Active {
    size_t idx;
    int remaining;
    int64_t ctx;
    double join;
  };
  std::vector<Active> active;
  // Step-indexed path: resident requests in a min-heap on the global step at which they
  // finish. A request admitted when `step` reads S has finish_step = S + output_len - 1 and
  // context ctx_base + step with ctx_base = (input_len + 1) - S, so at its finish step its
  // context is exactly total_len — nothing else about it needs to be stored.
  struct Resident {
    int64_t finish_step;
    size_t idx;
  };
  std::vector<Resident> heap;
  const auto later = [](const Resident& a, const Resident& b) {
    return a.finish_step > b.finish_step;
  };
  if (batched_steps) {
    heap.reserve(static_cast<size_t>(max_batch_size));
  } else {
    active.reserve(static_cast<size_t>(max_batch_size));
  }
  auto resident = [&] { return static_cast<int>(batched_steps ? heap.size() : active.size()); };
  const int pp = lm.par().pp;
  size_t next = 0;
  double now = 0.0;
  int64_t step = 0;  // decode steps taken so far (step-indexed path)
  int64_t used_tokens = 0;
  int64_t ctx_sum = 0;  // invariant: sum of resident contexts (exact: integer adds)

  while ((next < order.size() || resident() > 0) && !Settled(verdict)) {
    if (resident() == 0) {
      now = std::max(now, ready(order[next]));
    }
    // Admit ready requests while memory and the batch cap allow.
    while (next < order.size() && ready(order[next]) <= now &&
           resident() < max_batch_size) {
      const size_t idx = order[next];
      const int64_t need = trace[idx].total_len();
      if (used_tokens + need > kv_capacity_tokens) {
        break;
      }
      used_tokens += need;
      // TPOT is measured from first-token readiness, so admission queueing counts toward it
      // (matching RequestRecord::Tpot in the engine runtime).
      const int64_t ctx = static_cast<int64_t>(trace[idx].input_len) + 1;
      if (batched_steps) {
        heap.push_back(Resident{step + trace[idx].output_len - 1, idx});
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        active.push_back(Active{idx, trace[idx].output_len - 1, ctx, ready(idx)});
      }
      ctx_sum += ctx;
      ++next;
    }
    if (resident() == 0) {
      continue;  // jump to the next ready time at loop head
    }
    const int64_t batch = resident();
    const int64_t lane_batch = (batch + pp - 1) / pp;

    if (!batched_steps) {
      // Scalar reference path: one decode step at the micro-batch lane cadence per
      // iteration. Kept verbatim as the ground truth the step-indexed path is equivalence-
      // tested against (tiered_search_test) and for the micro-benchmark ablation.
      const int64_t lane_ctx = ctx_sum / pp;
      now += lm.FullTime(BatchWorkload::Decode(lane_batch, std::max<int64_t>(lane_ctx, 1)));
      size_t write = 0;
      for (Active& a : active) {
        --a.remaining;
        ++a.ctx;
        ++ctx_sum;
        if (a.remaining <= 0) {
          ctx_sum -= a.ctx;
          finish(a.idx, (now - a.join) / static_cast<double>(trace[a.idx].output_len - 1));
          used_tokens -= trace[a.idx].total_len();
        } else {
          active[write++] = a;
        }
      }
      active.resize(write);
      continue;
    }

    // Step-indexed stepping. Between membership changes the batch is fixed and the context
    // sum grows by exactly `batch` per step, so one DecodeRunPricer for the run's lane batch
    // prices each step from its lane context alone, bit-identically to FullTime, and `now`
    // accumulates the step times in the scalar loop's order. Steps are priced only as they
    // are taken. The run ends at the heap top's finish step (O(1), no pass over the batch)
    // or when `now` reaches the next admissible request's ready time (nothing else in the
    // admission condition moves during a run) — exactly where the scalar loop's membership
    // would change.
    const int run = static_cast<int>(heap.front().finish_step - step);
    const bool admit_pending =
        next < order.size() && resident() < max_batch_size &&
        used_tokens + trace[order[next]].total_len() <= kv_capacity_tokens;
    const double next_ready = admit_pending ? ready(order[next]) : 0.0;
    const model::LatencyModel::DecodeRunPricer price = lm.DecodeRun(lane_batch);
    int stepped = 0;
    while (stepped < run) {
      const int64_t lane_ctx = (ctx_sum + static_cast<int64_t>(stepped) * batch) / pp;
      now += price.FullTime(std::max<int64_t>(lane_ctx, 1));
      ++stepped;
      if (admit_pending && next_ready <= now) {
        break;  // the scalar loop would admit before the next step; back to the head
      }
    }
    // Apply the run: O(1) for the survivors, O(log B) per completion. Completions happen
    // only when the run reached the heap top's finish step; an admission cut pops nothing.
    // The pop order among equal finish steps cannot matter: ctx_sum and used_tokens are
    // exact integer sums and each TPOT is written by index.
    step += stepped;
    ctx_sum += static_cast<int64_t>(stepped) * batch;
    while (!heap.empty() && heap.front().finish_step == step) {
      const size_t idx = heap.front().idx;
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
      ctx_sum -= trace[idx].total_len();  // ctx_base + finish_step
      used_tokens -= trace[idx].total_len();
      finish(idx, (now - ready(idx)) / static_cast<double>(trace[idx].output_len - 1));
    }
  }
  return tpot;
}

// Single colocated instance over a trace view; writes results through the view's global
// positions.
void SimulateColocatedOne(const model::LatencyModel& lm, const TraceView& trace,
                          const ColocatedFastConfig& config,
                          std::vector<FastRecord>& records) {
  DS_PROF_ZONE("fast_sim.colocated");
  struct Active {
    size_t local_idx;
    int remaining;
    int64_t ctx;
    double first_token;
  };
  // Chunked mode: an admitted prompt whose compute window has advanced to `done` tokens
  // (starting at the cached prefix).
  struct Prefilling {
    size_t local_idx;
    int64_t done;
  };
  std::deque<size_t> waiting;
  std::deque<Prefilling> prefilling;  // chunked mode only
  std::vector<Active> decoding;
  decoding.reserve(static_cast<size_t>(config.max_batch_size));
  size_t next_arrival = 0;
  double now = 0.0;
  int64_t used_tokens = 0;
  int64_t decode_ctx_sum = 0;  // invariant: sum of ctx over `decoding` (exact: integer adds)
  const bool chunked = config.chunk_budget > 0;

  auto pull_arrivals = [&] {
    while (next_arrival < trace.size() && trace[next_arrival].arrival_time <= now) {
      waiting.push_back(next_arrival);
      ++next_arrival;
    }
  };

  while (true) {
    pull_arrivals();
    if (waiting.empty() && prefilling.empty() && decoding.empty()) {
      if (next_arrival >= trace.size()) {
        break;
      }
      now = trace[next_arrival].arrival_time;
      continue;
    }

    // Step formation: decodes plus admitted whole prompts under the token budget.
    BatchWorkload workload;
    std::vector<size_t> prefilled_now;
    int64_t prefill_tokens = 0;
    bool decodes_advance = false;
    if (chunked) {
      // Sarathi-style token budget (mirroring ColocatedInstance's kChunked + chunk_budget):
      // resident decodes claim one token each; prompt chunks from as many prompts as fit
      // fill the remainder, FCFS in admission order. Decodes always advance.
      while (!waiting.empty() &&
             static_cast<int>(decoding.size() + prefilling.size()) < config.max_batch_size) {
        const size_t idx = waiting.front();
        const int64_t need = trace[idx].total_len();
        if (need > config.kv_capacity_tokens) {
          records[trace.global(idx)].ttft = std::numeric_limits<double>::infinity();
          records[trace.global(idx)].tpot = std::numeric_limits<double>::infinity();
          waiting.pop_front();
          continue;
        }
        if (used_tokens + need > config.kv_capacity_tokens) {
          break;
        }
        used_tokens += need;
        waiting.pop_front();
        prefilling.push_back(
            Prefilling{idx, static_cast<int64_t>(trace[idx].cached_prefix_len)});
      }
      int64_t budget = config.chunk_budget - static_cast<int64_t>(decoding.size());
      auto it = prefilling.begin();
      while (budget > 0 && it != prefilling.end()) {
        const int64_t remaining = trace[it->local_idx].input_len - it->done;
        const int64_t chunk = std::min(remaining, budget);
        // Chunk attention reads the whole window so far: ~ chunk * (done + chunk) pairs.
        workload.prefill_tokens += chunk;
        workload.prefill_sq_tokens +=
            static_cast<double>(chunk) *
            (static_cast<double>(it->done) + static_cast<double>(chunk));
        it->done += chunk;
        prefill_tokens += chunk;
        budget -= chunk;
        if (it->done == trace[it->local_idx].input_len) {
          prefilled_now.push_back(it->local_idx);
          it = prefilling.erase(it);
        } else {
          ++it;
        }
      }
      decodes_advance = !decoding.empty();
    } else {
      while (!waiting.empty() &&
             static_cast<int>(decoding.size() + prefilled_now.size()) <
                 config.max_batch_size) {
        const size_t idx = waiting.front();
        const int64_t need = trace[idx].total_len();
        if (need > config.kv_capacity_tokens) {
          // Unserveable on this configuration: count as failing both SLOs and drop it.
          records[trace.global(idx)].ttft = std::numeric_limits<double>::infinity();
          records[trace.global(idx)].tpot = std::numeric_limits<double>::infinity();
          waiting.pop_front();
          continue;
        }
        if (used_tokens + need > config.kv_capacity_tokens) {
          break;
        }
        // Budgeted tokens are the computed ones (a cached prefix costs no step time),
        // mirroring the colocated engine's admission arithmetic.
        const int64_t computed = trace[idx].input_len - trace[idx].cached_prefix_len;
        if (!prefilled_now.empty() &&
            prefill_tokens + computed > config.max_prefill_tokens_per_step) {
          break;
        }
        used_tokens += need;
        waiting.pop_front();
        workload.prefill_tokens += computed;
        workload.prefill_sq_tokens +=
            static_cast<double>(computed) * static_cast<double>(trace[idx].input_len);
        prefill_tokens += computed;
        prefilled_now.push_back(idx);
      }
      // Prefill-priority scheduling (matching the vLLM engine baseline): a step carrying
      // prefill work is prefill-only and stalls resident decodes.
      decodes_advance = decoding.empty() ? false : prefilled_now.empty();
    }
    if (decodes_advance) {
      workload.decode_requests = static_cast<int64_t>(decoding.size());
      workload.decode_context_tokens = decode_ctx_sum;
    }

    if (workload.empty()) {
      // Memory-stalled with nothing running cannot happen (used_tokens would be 0);
      // we are waiting for the next arrival.
      DS_CHECK(next_arrival < trace.size());
      now = trace[next_arrival].arrival_time;
      continue;
    }

    now += lm.FullTime(workload) + config.cpu_overhead_per_step;

    // Decode advancement (skipped on prefill-only steps). Survivors compact in place, with
    // the running context sum tracking steps and departures.
    if (decodes_advance) {
      size_t write = 0;
      for (Active& a : decoding) {
        --a.remaining;
        ++a.ctx;
        ++decode_ctx_sum;
        if (a.remaining <= 0) {
          decode_ctx_sum -= a.ctx;
          records[trace.global(a.local_idx)].tpot =
              (now - a.first_token) / static_cast<double>(trace[a.local_idx].output_len - 1);
          used_tokens -= trace[a.local_idx].total_len();
        } else {
          decoding[write++] = a;
        }
      }
      decoding.resize(write);
    }

    // Prompts finished this step.
    for (size_t idx : prefilled_now) {
      records[trace.global(idx)].ttft = now - trace[idx].arrival_time;
      if (trace[idx].output_len <= 1) {
        used_tokens -= trace[idx].total_len();
      } else {
        const int64_t ctx = static_cast<int64_t>(trace[idx].input_len) + 1;
        decoding.push_back(Active{idx, trace[idx].output_len - 1, ctx, now});
        decode_ctx_sum += ctx;
      }
    }
  }
}

// Round-robin split: indices of the requests instance `inst` of `count` serves.
std::vector<size_t> RoundRobinIndices(size_t trace_size, int inst, int count) {
  std::vector<size_t> idx;
  idx.reserve(trace_size / static_cast<size_t>(count) + 1);
  for (size_t i = static_cast<size_t>(inst); i < trace_size;
       i += static_cast<size_t>(count)) {
    idx.push_back(i);
  }
  return idx;
}

}  // namespace

metrics::Attainment FastAttainment(const std::vector<FastRecord>& records,
                                   const metrics::SloSpec& slo) {
  metrics::Attainment result;
  if (records.empty()) {
    return result;
  }
  int64_t both = 0;
  int64_t ttft_ok = 0;
  int64_t tpot_ok = 0;
  for (const FastRecord& r : records) {
    const bool t_ok = r.ttft <= slo.ttft;
    const bool p_ok = r.tpot <= slo.tpot;
    both += (t_ok && p_ok) ? 1 : 0;
    ttft_ok += t_ok ? 1 : 0;
    tpot_ok += p_ok ? 1 : 0;
  }
  const double n = static_cast<double>(records.size());
  result.both = both / n;
  result.ttft_only = ttft_ok / n;
  result.tpot_only = tpot_ok / n;
  return result;
}

std::vector<double> SimulatePrefillFinishTimes(const model::LatencyModel& lm,
                                               const workload::Trace& trace,
                                               int64_t target_tokens, int max_batch_size) {
  DS_CHECK_GT(target_tokens, 0);
  DS_CHECK_GT(max_batch_size, 0);
  return PrefillFinishTimesView(lm, TraceView(trace), target_tokens, max_batch_size,
                                /*verdict=*/nullptr);
}

double SimulatePrefillAttainment(const model::LatencyModel& lm, const workload::Trace& trace,
                                 int64_t target_tokens, int max_batch_size, double ttft_slo,
                                 double target) {
  DS_CHECK_GT(target_tokens, 0);
  DS_CHECK_GT(max_batch_size, 0);
  AttainmentVerdict verdict(static_cast<int64_t>(trace.size()), ttft_slo, target);
  PrefillFinishTimesView(lm, TraceView(trace), target_tokens, max_batch_size, &verdict);
  return verdict.attainment();
}

std::vector<double> SimulateDecodeTpots(const model::LatencyModel& lm,
                                        int64_t kv_capacity_tokens,
                                        const workload::Trace& trace,
                                        const std::vector<double>& ready_times,
                                        int max_batch_size, bool batched_steps) {
  return DecodeTpotsView(lm, kv_capacity_tokens, TraceView(trace), ready_times, max_batch_size,
                         batched_steps, /*verdict=*/nullptr);
}

double SimulateDecodeAttainment(const model::LatencyModel& lm, int64_t kv_capacity_tokens,
                                const workload::Trace& trace,
                                const std::vector<double>& ready_times, int max_batch_size,
                                double tpot_slo, double target) {
  AttainmentVerdict verdict(static_cast<int64_t>(trace.size()), tpot_slo, target);
  DecodeTpotsView(lm, kv_capacity_tokens, TraceView(trace), ready_times, max_batch_size,
                  /*batched_steps=*/true, &verdict);
  return verdict.attainment();
}

std::vector<FastRecord> SimulateDisaggregated(const model::LatencyModel& prefill_lm,
                                              const model::LatencyModel& decode_lm,
                                              const workload::Trace& trace,
                                              const DisaggregatedFastConfig& config) {
  DS_CHECK_GE(config.num_prefill, 1);
  DS_CHECK_GE(config.num_decode, 1);
  std::vector<FastRecord> records(trace.size());

  // Phase 1: round-robin prefill across instances (views into the shared trace, no copies).
  std::vector<double> first_token(trace.size(), 0.0);
  for (int inst = 0; inst < config.num_prefill; ++inst) {
    const std::vector<size_t> idx =
        RoundRobinIndices(trace.size(), inst, config.num_prefill);
    const std::vector<double> finish =
        PrefillFinishTimesView(prefill_lm, TraceView(trace, idx), config.prefill_target_tokens,
                               config.prefill_max_batch, /*verdict=*/nullptr);
    for (size_t k = 0; k < idx.size(); ++k) {
      first_token[idx[k]] = finish[k];
      records[idx[k]].ttft = finish[k] - trace[idx[k]].arrival_time;
    }
  }

  // Phase 2: round-robin decode with arrivals at prefill completion.
  for (int inst = 0; inst < config.num_decode; ++inst) {
    const std::vector<size_t> idx = RoundRobinIndices(trace.size(), inst, config.num_decode);
    std::vector<double> ready;
    ready.reserve(idx.size());
    for (size_t i : idx) {
      ready.push_back(first_token[i]);
    }
    const std::vector<double> tpots =
        DecodeTpotsView(decode_lm, config.decode_kv_capacity_tokens, TraceView(trace, idx),
                        ready, config.decode_max_batch, /*batched_steps=*/true,
                        /*verdict=*/nullptr);
    for (size_t k = 0; k < idx.size(); ++k) {
      records[idx[k]].tpot = tpots[k];
    }
  }
  return records;
}

std::vector<FastRecord> SimulateColocated(const model::LatencyModel& lm,
                                          const workload::Trace& trace,
                                          const ColocatedFastConfig& config) {
  DS_CHECK_GE(config.num_instances, 1);
  DS_CHECK_GT(config.kv_capacity_tokens, 0);
  std::vector<FastRecord> records(trace.size());
  for (int inst = 0; inst < config.num_instances; ++inst) {
    const std::vector<size_t> idx =
        RoundRobinIndices(trace.size(), inst, config.num_instances);
    SimulateColocatedOne(lm, TraceView(trace, idx), config, records);
  }
  return records;
}

}  // namespace distserve::placement
