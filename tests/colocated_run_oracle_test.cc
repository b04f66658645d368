// Property test: the colocated engine's run-length decode steps against the
// one-event-per-step loop they replaced. PerStepColocatedInstance below is that loop, kept
// verbatim apart from its name as the oracle; both run the same scripts
// (colocated_run_script.h) side by side and must agree on everything observable, bit for bit:
// per-request timestamps, progress and phase, the order of completions and teardowns, and
// the instance counters read at Run(until) checkpoints.
//
// Beyond random scripts, the tests construct exact ties: arrivals, cancels, timeouts and
// checkpoints placed at exactly the oracle's step-boundary times (read off its engine-step
// spans), scheduled before the run or made directly between Run(until) windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "colocated_run_script.h"
#include "common/logging.h"
#include "common/prof.h"
#include "engine/kv_block_manager.h"
#include "trace/recorder.h"

namespace distserve::engine {
namespace {

// --- The one-event-per-step colocated instance (oracle) ----------------------------------

class PerStepColocatedInstance {
 public:
  struct Options {
    enum class SchedulingMode {
      kPrefillPriority,  // vLLM: prefill-only iterations stall decodes
      kMixed,            // Orca: one shared batch
      kChunked,          // SARATHI: chunked prefill piggybacked on decodes
    };

    SchedulingMode mode = SchedulingMode::kPrefillPriority;
    int max_batch_size = 256;
    // Prefill tokens admitted into one step (vLLM's max_num_batched_tokens analogue).
    int64_t max_prefill_tokens_per_step = 4096;
    // kChunked only: per-step token budget shared by resident decodes (one token each) and
    // prompt chunks filling the remainder, across multiple prompts. Must be > 0.
    int64_t chunk_budget = 512;
    int kv_block_size = 16;
    // Host-side scheduler/runtime overhead added to every iteration. The 2023-era vLLM the
    // paper evaluates runs a Python scheduling loop costing O(ms) per iteration — one of the
    // stated motivations for DistServe's C++ engine (§5). Zero by default; the vLLM baseline
    // sets kVllmStepCpuOverhead.
    double cpu_overhead_per_step = 0.0;
  };

  PerStepColocatedInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                    int64_t kv_capacity_tokens, Options options, int id);

  PerStepColocatedInstance(const PerStepColocatedInstance&) = delete;
  PerStepColocatedInstance& operator=(const PerStepColocatedInstance&) = delete;

  void set_on_complete(std::function<void(RequestState*)> fn) { on_complete_ = std::move(fn); }

  // Fired once when a Cancel() finishes tearing the request down (KV released). The caller
  // set the terminal phase (kCancelled / kTimedOut) before calling Cancel.
  void set_on_cancelled(std::function<void(RequestState*)> fn) {
    on_cancelled_ = std::move(fn);
  }

  // Fired when a resident decode is evicted by a higher-priority tenant (it re-queues and
  // will re-prefill; the callback is for counters only).
  void set_on_preempt(std::function<void(RequestState*)> fn) { on_preempt_ = std::move(fn); }

  // Optional span recorder (trace/recorder.h); null leaves the hot path untouched.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Adds an arriving request to the waiting queue (FCFS within a tenant class; higher
  // priorities admit first).
  void Enqueue(RequestState* request);

  // Client cancellation / timeout. The caller must have set request->phase to kCancelled or
  // kTimedOut. Teardown is immediate when the request is queued or between steps; a request
  // inside the executing step is reaped at the step boundary (cancel_pending). Either way KV
  // is fully released and on_cancelled fires exactly once.
  void Cancel(RequestState* request);

  int64_t load() const {
    return static_cast<int64_t>(waiting_.size() + prefilling_.size() + decoding_.size());
  }
  size_t waiting_count() const { return waiting_.size(); }

  int id() const { return id_; }
  const KvBlockManager& kv() const { return kv_; }

  // Observability.
  int64_t steps_executed() const { return steps_executed_; }
  int64_t tokens_generated() const { return tokens_generated_; }
  double busy_seconds() const { return busy_seconds_; }
  int64_t preemptions() const { return preemptions_; }
  int64_t cancellations() const { return cancellations_; }

 private:
  void MaybeStep();
  void StepEnd(std::vector<RequestState*> prefilled_now, bool decodes_advanced);
  // Adds one prompt's chunk (or whole remaining prompt) to `workload`; stamps prefill_start
  // on the first computed token and opens the prefill_exec span.
  void AddPrefillWork(RequestState* request, int64_t chunk, model::BatchWorkload* workload);
  // Admission scan: highest priority first, FCFS within a class; plain front() when no
  // annotated priorities ever arrived (single-tenant fast path).
  std::deque<RequestState*>::iterator PickWaiting();
  // Evicts the lowest-priority resident decode strictly below `floor`; returns true if one
  // was evicted (its KV is freed and it re-queues for a full re-prefill).
  bool PreemptLowestBelow(int floor);
  void FinishCancel(RequestState* request, double now);

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  std::function<void(RequestState*)> on_complete_;
  std::function<void(RequestState*)> on_cancelled_;
  std::function<void(RequestState*)> on_preempt_;
  trace::Recorder* recorder_ = nullptr;

  std::deque<RequestState*> waiting_;       // not yet admitted (no KV reserved)
  std::deque<RequestState*> prefilling_;    // admitted, prompt partially processed (chunked)
  std::vector<RequestState*> decoding_;     // prompt done, generating tokens
  // Invariant: sum of context_len() over `decoding_`, maintained incrementally on
  // join/step/complete so batch formation is O(1) (integer adds are exactly associative, so
  // this matches a per-step rescan bit for bit).
  int64_t decode_ctx_tokens_ = 0;
  bool step_in_flight_ = false;
  // True once any enqueued request carried priority != 0; gates the admission scan so
  // single-tenant runs keep the plain FCFS front() path.
  bool priorities_active_ = false;

  int64_t steps_executed_ = 0;
  int64_t tokens_generated_ = 0;
  double busy_seconds_ = 0.0;
  int64_t preemptions_ = 0;
  int64_t cancellations_ = 0;
};


PerStepColocatedInstance::PerStepColocatedInstance(simcore::Simulator* sim,
                                     model::LatencyModel latency_model,
                                     int64_t kv_capacity_tokens, Options options, int id)
    : sim_(sim),
      latency_model_(std::move(latency_model)),
      kv_(kv_capacity_tokens, options.kv_block_size),
      options_(options),
      id_(id) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_EQ(latency_model_.par().pp, 1)
      << "the colocated (vLLM) baseline supports intra-op parallelism only";
  DS_CHECK_GT(options_.max_batch_size, 0);
  DS_CHECK_GT(options_.max_prefill_tokens_per_step, 0);
  if (options_.mode == Options::SchedulingMode::kChunked) {
    DS_CHECK_GT(options_.chunk_budget, 0) << "kChunked needs a positive per-step token budget";
  }
}

void PerStepColocatedInstance::Enqueue(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK_LE(kv_.BlocksForTokens(request->request.total_len()), kv_.total_blocks())
      << "request " << request->request.id << " can never fit colocated instance " << id_;
  DS_CHECK_GE(request->request.cached_prefix_len, 0);
  DS_CHECK_LT(request->request.cached_prefix_len, request->request.input_len)
      << "request " << request->request.id << ": at least one prompt token must prefill";
  priorities_active_ = priorities_active_ || request->request.priority != 0;
  request->prefill_instance = id_;  // owning replica, for the serving layer's Cancel routing
  request->phase = RequestPhase::kPrefillQueued;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kPrefillQueue, trace::ColocatedPid(id_), 0));
  waiting_.push_back(request);
  MaybeStep();
}

std::deque<RequestState*>::iterator PerStepColocatedInstance::PickWaiting() {
  if (!priorities_active_) {
    return waiting_.begin();  // single-tenant fast path: plain FCFS
  }
  auto best = waiting_.begin();
  for (auto it = std::next(waiting_.begin()); it != waiting_.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;  // strictly greater: FCFS stays stable within a class
    }
  }
  return best;
}

bool PerStepColocatedInstance::PreemptLowestBelow(int floor) {
  DS_CHECK(!step_in_flight_);
  int best = -1;
  for (int i = 0; i < static_cast<int>(decoding_.size()); ++i) {
    if (decoding_[i]->request.priority >= floor) {
      continue;
    }
    // Lowest priority; among equals the latest joiner (least decode progress invested).
    if (best < 0 || decoding_[i]->request.priority <= decoding_[best]->request.priority) {
      best = i;
    }
  }
  if (best < 0) {
    return false;
  }
  RequestState* victim = decoding_[best];
  decoding_.erase(decoding_.begin() + best);
  decode_ctx_tokens_ -= victim->context_len();
  kv_.Release(victim->request.id);
  // Full re-prefill: generated tokens are discarded; only the prefix cache survives.
  victim->decode_steps_done = 0;
  victim->prefill_tokens_done = 0;
  ++victim->preemptions;
  ++preemptions_;
  DS_TRACE(recorder_, Transition(victim->request.id, sim_->now(), trace::SpanKind::kPreempt,
                                 trace::ColocatedPid(id_), 0, victim->preemptions));
  if (on_preempt_) {
    on_preempt_(victim);
  }
  waiting_.push_back(victim);
  return true;
}

void PerStepColocatedInstance::FinishCancel(RequestState* request, double now) {
  if (kv_.Holds(request->request.id)) {
    kv_.Release(request->request.id);
  }
  request->cancel_pending = false;
  ++cancellations_;
  const auto kind = request->phase == RequestPhase::kTimedOut
                        ? trace::Recorder::OutcomeKind::kTimedOut
                        : trace::Recorder::OutcomeKind::kCancelled;
  DS_TRACE(recorder_, Drop(request->request.id, now, kind));
  if (on_cancelled_) {
    on_cancelled_(request);
  }
}

void PerStepColocatedInstance::Cancel(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK(request->phase == RequestPhase::kCancelled ||
           request->phase == RequestPhase::kTimedOut)
      << "Cancel without a terminal phase set for request " << request->request.id;
  const double now = sim_->now();
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (*it == request) {
      waiting_.erase(it);
      FinishCancel(request, now);
      return;
    }
  }
  // A partially-prefilled prompt can leave mid-run even while a step executes: the in-flight
  // step only references prefilled_now and decoding_, never the prefilling_ queue.
  for (auto it = prefilling_.begin(); it != prefilling_.end(); ++it) {
    if (*it == request) {
      prefilling_.erase(it);
      FinishCancel(request, now);
      MaybeStep();
      return;
    }
  }
  if (!step_in_flight_) {
    for (auto it = decoding_.begin(); it != decoding_.end(); ++it) {
      if (*it == request) {
        decode_ctx_tokens_ -= request->context_len();
        decoding_.erase(it);
        FinishCancel(request, now);
        MaybeStep();
        return;
      }
    }
  }
  // Inside the executing step (a resident decode, or a prompt finishing this step): the step
  // boundary reaps it — tearing it out now would corrupt the step's incremental accounting.
  request->cancel_pending = true;
}

void PerStepColocatedInstance::AddPrefillWork(RequestState* request, int64_t chunk,
                                       model::BatchWorkload* workload) {
  DS_CHECK_GT(chunk, 0);
  const double window_start = request->prefill_tokens_done;
  if (request->prefill_tokens_done == request->request.cached_prefix_len) {
    request->record.prefill_start = sim_->now();
  }
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kPrefillExec, trace::ColocatedPid(id_), 0,
                                 steps_executed_));
  request->prefill_tokens_done += static_cast<int>(chunk);
  workload->prefill_tokens += chunk;
  // Chunk attention reads the whole window so far: ~ c * (p + c) token-pairs. The window
  // includes the cached prefix — its KV is read, only its compute was skipped.
  workload->prefill_sq_tokens =
      workload->prefill_sq_tokens +
      static_cast<double>(chunk) * (window_start + static_cast<double>(chunk));
}

void PerStepColocatedInstance::MaybeStep() {
  if (step_in_flight_) {
    return;
  }
  // Admission: move waiting requests into the prefilling set while KV memory and the batch
  // cap allow — highest tenant priority first. A blocked higher-priority prompt may evict
  // the lowest-priority resident decode (strictly below it) to make room. Reservation covers
  // the full final context (prompt + outputs); the cached prefix reserves too — KV reuse
  // saves compute, not memory.
  while (!waiting_.empty() &&
         static_cast<int>(prefilling_.size() + decoding_.size()) < options_.max_batch_size) {
    auto it = PickWaiting();
    RequestState* request = *it;
    if (!kv_.CanReserve(request->request.total_len())) {
      if (!priorities_active_ || !PreemptLowestBelow(request->request.priority)) {
        break;
      }
      continue;  // re-evaluate: the eviction may or may not have freed enough
    }
    const bool reserved = kv_.Reserve(request->request.id, request->request.total_len());
    DS_CHECK(reserved);
    waiting_.erase(it);
    // Compute starts after the cached prefix (a preempted victim resumes here too).
    request->prefill_tokens_done = request->request.cached_prefix_len;
    prefilling_.push_back(request);
  }

  // Select this step's prefill work.
  model::BatchWorkload workload;
  std::vector<RequestState*> prefilled_now;
  int64_t prefill_tokens_in_step = 0;
  if (!prefilling_.empty()) {
    if (options_.mode == Options::SchedulingMode::kChunked) {
      // Sarathi-style token budget: resident decodes claim one token each; prompt chunks
      // from as many prompts as fit fill the remainder, FCFS in admission order.
      int64_t budget = options_.chunk_budget - static_cast<int64_t>(decoding_.size());
      auto it = prefilling_.begin();
      while (budget > 0 && it != prefilling_.end()) {
        RequestState* head = *it;
        const int64_t remaining = head->request.input_len - head->prefill_tokens_done;
        const int64_t chunk = std::min(remaining, budget);
        AddPrefillWork(head, chunk, &workload);
        prefill_tokens_in_step += chunk;
        budget -= chunk;
        if (head->prefill_tokens_done == head->request.input_len) {
          prefilled_now.push_back(head);
          it = prefilling_.erase(it);
        } else {
          ++it;  // budget exhausted mid-prompt; the next step continues this window
        }
      }
    } else {
      // vLLM: whole prompts, FCFS, bounded by the per-step token budget (the head prompt
      // always runs even if it alone exceeds the budget). Budgeted tokens are the computed
      // ones — a cached prefix costs no step time.
      while (!prefilling_.empty()) {
        RequestState* head = prefilling_.front();
        const int64_t computed = head->request.input_len - head->prefill_tokens_done;
        if (!prefilled_now.empty() &&
            prefill_tokens_in_step + computed > options_.max_prefill_tokens_per_step) {
          break;
        }
        AddPrefillWork(head, computed, &workload);
        prefill_tokens_in_step += computed;
        prefilled_now.push_back(head);
        prefilling_.pop_front();
      }
    }
  }

  // Decode side. Under prefill-priority scheduling a step carrying prefill work is
  // prefill-only: resident decodes stall until it finishes (the vLLM baseline behaviour the
  // paper measures). Mixed/chunked modes batch decodes into the same step.
  const bool prefill_only_step =
      options_.mode == Options::SchedulingMode::kPrefillPriority && !prefilled_now.empty();
  const bool decodes_advance = !decoding_.empty() && !prefill_only_step;
  if (decodes_advance) {
    workload.decode_requests = static_cast<int64_t>(decoding_.size());
    workload.decode_context_tokens = decode_ctx_tokens_;
    if (DS_TRACE_ON(recorder_)) {
      const double now = sim_->now();
      for (RequestState* r : decoding_) {
        // Coalesced by the recorder into one contiguous decode_step run per stretch.
        recorder_->Transition(r->request.id, now, trace::SpanKind::kDecodeStep,
                              trace::ColocatedPid(id_), 0, r->decode_steps_done);
      }
    }
  }

  if (workload.empty()) {
    return;  // Idle; the next Enqueue re-arms the loop.
  }

  const double step_time = latency_model_.FullTime(workload) + options_.cpu_overhead_per_step;
  DS_TRACE(recorder_, InstanceSpan(trace::ColocatedPid(id_), 0, trace::SpanKind::kEngineStep,
                                   sim_->now(), sim_->now() + step_time, steps_executed_));
  step_in_flight_ = true;
  busy_seconds_ += step_time;
  ++steps_executed_;
  sim_->ScheduleAfter(step_time,
                      [this, prefilled_now = std::move(prefilled_now),
                       decodes_advance]() mutable {
                        StepEnd(std::move(prefilled_now), decodes_advance);
                      });
}

void PerStepColocatedInstance::StepEnd(std::vector<RequestState*> prefilled_now,
                                bool decodes_advanced) {
  DS_PROF_ZONE("colocated.step_end");
  step_in_flight_ = false;
  const double now = sim_->now();

  // Decode advancement and completions (advancement skipped when the step was prefill-only;
  // cancel reaping happens either way). Survivors compact in place; the running context sum
  // tracks the +1 token per stepped request and the departure of completers and cancels.
  {
    size_t write = 0;
    for (RequestState* r : decoding_) {
      if (r->cancel_pending) {
        decode_ctx_tokens_ -= r->context_len();
        FinishCancel(r, now);
        continue;
      }
      if (!decodes_advanced) {
        decoding_[write++] = r;
        continue;
      }
      ++r->decode_steps_done;
      ++decode_ctx_tokens_;
      ++tokens_generated_;
      if (r->remaining_decode_steps() <= 0) {
        decode_ctx_tokens_ -= r->context_len();
        r->record.completion = now;
        r->phase = RequestPhase::kDone;
        DS_TRACE(recorder_, Finish(r->request.id, now));
        kv_.Release(r->request.id);
        if (on_complete_) {
          on_complete_(r);
        }
      } else {
        decoding_[write++] = r;
      }
    }
    decoding_.resize(write);
  }

  // Prompts that finished this step produce their first token now; colocation means no
  // transfer and no decode queue (they are already resident).
  for (RequestState* r : prefilled_now) {
    if (r->cancel_pending) {
      FinishCancel(r, now);
      continue;
    }
    r->record.first_token = now;
    r->record.transfer_start = now;
    r->record.transfer_end = now;
    r->record.decode_start = now;
    ++tokens_generated_;
    if (r->request.output_len <= 1) {
      r->record.completion = now;
      r->phase = RequestPhase::kDone;
      DS_TRACE(recorder_, Finish(r->request.id, now));
      kv_.Release(r->request.id);
      if (on_complete_) {
        on_complete_(r);
      }
    } else {
      // Colocation: transfer and decode queue are zero-width; go straight to decode_step at
      // the same instant the record stamps decode_start (keeps extents bitwise-equal to the
      // collector's subtractions).
      DS_TRACE(recorder_, Transition(r->request.id, now, trace::SpanKind::kDecodeStep,
                                     trace::ColocatedPid(id_), 0, 0));
      decoding_.push_back(r);
      decode_ctx_tokens_ += r->context_len();
    }
  }

  MaybeStep();
}

// --- Harness ------------------------------------------------------------------------------

using colocated_script::Call;
using colocated_script::Mode;
using colocated_script::Outcome;
using colocated_script::RunScript;
using colocated_script::Script;
using colocated_script::Variant;

void ExpectSameOutcome(const Outcome& oracle, const Outcome& runs) {
  ASSERT_EQ(oracle.requests.size(), runs.requests.size());
  for (size_t i = 0; i < oracle.requests.size(); ++i) {
    const auto& a = oracle.requests[i];
    const auto& b = runs.requests[i];
    EXPECT_EQ(a.phase, b.phase) << "request " << i;
    EXPECT_EQ(a.decode_steps_done, b.decode_steps_done) << "request " << i;
    EXPECT_EQ(a.prefill_tokens_done, b.prefill_tokens_done) << "request " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << "request " << i;
    EXPECT_EQ(a.prefill_start, b.prefill_start) << "request " << i;
    EXPECT_EQ(a.first_token, b.first_token) << "request " << i;
    EXPECT_EQ(a.decode_start, b.decode_start) << "request " << i;
    EXPECT_EQ(a.completion, b.completion) << "request " << i;
  }
  EXPECT_EQ(oracle.order, runs.order);
  ASSERT_EQ(oracle.counters.size(), runs.counters.size());
  for (size_t k = 0; k < oracle.counters.size(); ++k) {
    const auto& a = oracle.counters[k];
    const auto& b = runs.counters[k];
    EXPECT_EQ(a.time, b.time) << "checkpoint " << k;
    EXPECT_EQ(a.steps, b.steps) << "checkpoint " << k << " at " << a.time;
    EXPECT_EQ(a.tokens, b.tokens) << "checkpoint " << k << " at " << a.time;
    EXPECT_EQ(a.busy, b.busy) << "checkpoint " << k << " at " << a.time;
    EXPECT_EQ(a.load, b.load) << "checkpoint " << k;
    EXPECT_EQ(a.waiting, b.waiting) << "checkpoint " << k;
    EXPECT_EQ(a.used_blocks, b.used_blocks) << "checkpoint " << k;
    EXPECT_EQ(a.preemptions, b.preemptions) << "checkpoint " << k;
    EXPECT_EQ(a.cancellations, b.cancellations) << "checkpoint " << k;
  }
  EXPECT_EQ(oracle.Digest(), runs.Digest());
}

// Runs the script on both engines; returns the two event counts (oracle, runs).
std::pair<int64_t, int64_t> ExpectMatchesOracle(const Script& script) {
  const Outcome oracle = RunScript<PerStepColocatedInstance>(script);
  const Outcome runs = RunScript<ColocatedInstance>(script);
  ExpectSameOutcome(oracle, runs);
  return {oracle.events, runs.events};
}

// The oracle's step-boundary times: its engine-step spans end at every one.
std::vector<double> BoundaryTimes(const Script& script) {
  trace::Recorder::Options options;
  options.instance_spans = true;
  trace::Recorder recorder(options);
  RunScript<PerStepColocatedInstance>(script, &recorder);
  std::vector<double> times;
  for (const trace::Span& span : recorder.spans()) {
    if (span.request < 0 && span.kind == trace::SpanKind::kEngineStep) {
      times.push_back(span.end);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

bool HasCallAt(const Script& script, double t) {
  return std::any_of(script.calls.begin(), script.calls.end(),
                     [t](const Call& c) { return c.time == t && !c.direct; });
}

bool IsCheckpoint(const Script& script, double t) {
  return std::find(script.checkpoints.begin(), script.checkpoints.end(), t) !=
         script.checkpoints.end();
}

void AddCheckpoint(Script* script, double t) {
  if (!IsCheckpoint(*script, t)) {
    script->checkpoints.push_back(t);
    std::sort(script->checkpoints.begin(), script->checkpoints.end());
  }
}

int AddRequest(Script* script, double arrival, int input_len, int output_len, int priority) {
  workload::Request req;
  req.id = static_cast<workload::RequestId>(script->requests.size());
  req.arrival_time = arrival;
  req.input_len = input_len;
  req.output_len = output_len;
  req.priority = priority;
  script->requests.push_back(req);
  return static_cast<int>(req.id);
}

// Places one call or checkpoint at exactly boundary time `t`. Scheduled calls go where no
// checkpoint is and direct calls where no scheduled call is: a direct call after Run(until)
// sees the boundaries at `t` as passed only when no event fired exactly at `t` (DESIGN.md
// §12), and the per-step loop always saw them passed.
void AddTie(Script* script, double t, int what, std::mt19937_64* rng) {
  const bool scheduled_ok = !IsCheckpoint(*script, t);
  const bool direct_ok = !HasCallAt(*script, t);
  const int victim = std::uniform_int_distribution<int>(
      0, static_cast<int>(script->requests.size()) - 1)(*rng);
  const int input_len = std::uniform_int_distribution<int>(16, 300)(*rng);
  const int output_len = std::uniform_int_distribution<int>(1, 40)(*rng);
  const int priority = std::uniform_int_distribution<int>(0, 2)(*rng);
  switch (what) {
    case 0:  // a checkpoint read
      if (direct_ok) {
        AddCheckpoint(script, t);
      }
      break;
    case 1:  // a client cancel
      if (scheduled_ok) {
        script->calls.push_back(Call{t, Call::Kind::kCancel, victim});
      }
      break;
    case 2:  // a deadline
      if (scheduled_ok) {
        script->calls.push_back(Call{t, Call::Kind::kTimeout, victim});
      }
      break;
    case 3:  // an arrival
      if (scheduled_ok) {
        const int id = AddRequest(script, t, input_len, output_len, priority);
        script->calls.push_back(Call{t, Call::Kind::kEnqueue, id});
      }
      break;
    case 4:
      if (direct_ok) {
        AddCheckpoint(script, t);
        const int id = AddRequest(script, t, input_len, output_len, priority);
        script->calls.push_back(Call{t, Call::Kind::kEnqueue, id, /*direct=*/true});
      }
      break;
    default:
      if (direct_ok) {
        AddCheckpoint(script, t);
        script->calls.push_back(Call{t, Call::Kind::kCancel, victim, /*direct=*/true});
      }
      break;
  }
}

using Grid = std::tuple<Mode, Variant>;

std::string GridName(const ::testing::TestParamInfo<Grid>& info) {
  static const char* const kModes[] = {"PrefillPriority", "Mixed", "Chunked"};
  static const char* const kVariants[] = {"Prefix", "Tenants", "Abandon"};
  return std::string(kModes[static_cast<int>(std::get<0>(info.param))]) + "_" +
         kVariants[static_cast<int>(std::get<1>(info.param))];
}

class ColocatedRunOracleTest : public ::testing::TestWithParam<Grid> {};

TEST_P(ColocatedRunOracleTest, RandomScriptsMatchPerStepLoop) {
  const auto [mode, variant] = GetParam();
  int64_t oracle_events = 0;
  int64_t run_events = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto [a, b] = ExpectMatchesOracle(colocated_script::RandomScript(seed, mode, variant));
    oracle_events += a;
    run_events += b;
  }
  // Decode-only steps of fixed membership share one event.
  EXPECT_LT(run_events, oracle_events);
}

// Grows a script one exact tie at a time: each round reads the oracle's boundary times and
// places a call (an arrival, a cancel, a deadline; scheduled, or made directly after a
// Run(until) window) or a checkpoint at exactly one of them, then checks the engine against
// the oracle on the result.
TEST_P(ColocatedRunOracleTest, ExactTieBoundariesMatchPerStepLoop) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "boundary times are read from trace spans";
  }
  const auto [mode, variant] = GetParam();
  for (uint64_t seed = 100; seed < 106; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Script script = colocated_script::RandomScript(seed, mode, variant, 24);
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 10; ++round) {
      const std::vector<double> bounds = BoundaryTimes(script);
      ASSERT_FALSE(bounds.empty());
      const double t = bounds[std::uniform_int_distribution<size_t>(
          bounds.size() / 4, bounds.size() - 1)(rng)];
      AddTie(&script, t, std::uniform_int_distribution<int>(0, 5)(rng), &rng);
      SCOPED_TRACE("round " + std::to_string(round));
      ExpectMatchesOracle(script);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, ColocatedRunOracleTest,
    ::testing::Combine(::testing::Values(Mode::kPrefillPriority, Mode::kMixed, Mode::kChunked),
                       ::testing::Values(Variant::kPrefix, Variant::kTenants,
                                         Variant::kAbandon)),
    GridName);

// One long decode alone on the engine: every step after its prefill is an inner boundary of
// a run. An arrival and a cancel land exactly on inner boundaries; the arrival cuts the run
// there and prefills at that boundary, the cancel reaps its victim at the boundary after.
TEST(ColocatedRunTieTest, ArrivalAndCancelOnInnerBoundaries) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "boundary times are read from trace spans";
  }
  for (Mode mode : {Mode::kPrefillPriority, Mode::kMixed, Mode::kChunked}) {
    for (int k : {3, 17, 40}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) + " boundary " +
                   std::to_string(k));
      Script script;
      script.options.mode = mode;
      const int long_decode = AddRequest(&script, 0.0, 200, 120, 0);
      const int partner = AddRequest(&script, 0.0, 64, 90, 0);
      for (int id : {long_decode, partner}) {
        script.calls.push_back(Call{0.0, Call::Kind::kEnqueue, id});
      }
      const std::vector<double> bounds = BoundaryTimes(script);
      ASSERT_GT(bounds.size(), static_cast<size_t>(k + 10));
      const int arrival = AddRequest(&script, bounds[k], 128, 12, 0);
      script.calls.push_back(Call{bounds[k], Call::Kind::kEnqueue, arrival});
      script.calls.push_back(Call{bounds[k + 6], Call::Kind::kCancel, partner});
      const Outcome runs = RunScript<ColocatedInstance>(script);
      EXPECT_EQ(runs.requests[static_cast<size_t>(arrival)].prefill_start, bounds[k]);
      EXPECT_EQ(runs.requests[static_cast<size_t>(partner)].phase, RequestPhase::kCancelled);
      const Outcome oracle = RunScript<PerStepColocatedInstance>(script);
      ExpectSameOutcome(oracle, runs);
      EXPECT_LT(runs.events, oracle.events);
    }
  }
}

// A blocked-admission run: the KV pool holds the two residents only, so a third request
// waits for memory while they decode. The decode-only steps still run as one event per run
// (the wait cannot end inside a run: only a finisher frees memory), and the waiter is
// admitted at exactly the boundary where the first resident finishes.
TEST(ColocatedRunBlockedTest, BlockedQueueDoesNotCutRuns) {
  for (Mode mode : {Mode::kPrefillPriority, Mode::kMixed, Mode::kChunked}) {
    for (bool priorities : {false, true}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   (priorities ? " priorities" : ""));
      Script script;
      script.options.mode = mode;
      script.kv_capacity = 16 * (13 + 13 + 1);  // two 200-token residents and one spare block
      const int a = AddRequest(&script, 0.0, 100, 100, priorities ? 1 : 0);
      const int b = AddRequest(&script, 0.0, 120, 80, priorities ? 1 : 0);
      // The waiter ranks highest but may not evict a resident of its own class.
      const int waiter = AddRequest(&script, 0.05, 100, 20, priorities ? 1 : 0);
      for (int id : {a, b, waiter}) {
        script.calls.push_back(Call{script.requests[static_cast<size_t>(id)].arrival_time,
                                    Call::Kind::kEnqueue, id});
      }
      script.checkpoints = {0.3, 0.9};
      const Outcome runs = RunScript<ColocatedInstance>(script);
      const Outcome oracle = RunScript<PerStepColocatedInstance>(script);
      ExpectSameOutcome(oracle, runs);
      EXPECT_EQ(runs.counters[0].waiting, 1) << "the waiter is not blocked mid-run";
      EXPECT_EQ(runs.requests[static_cast<size_t>(waiter)].prefill_start,
                runs.requests[static_cast<size_t>(b)].completion);
      // Runs of 32 steps at most (then as long as the steps since the last cut).
      EXPECT_LT(runs.events * 4, oracle.events);
    }
  }
}

// A cancel that unblocks the queue cuts the run: the blocked head of the queue leaves, and
// the request behind it, which fits, is admitted at the next boundary instead of at the
// next finish.
TEST(ColocatedRunCutTest, CancelOfBlockedHeadAdmitsTheNextAtTheNextBoundary) {
  for (Mode mode : {Mode::kPrefillPriority, Mode::kMixed, Mode::kChunked}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    Script script;
    script.options.mode = mode;
    script.kv_capacity = 16 * (13 + 13 + 6);  // two residents and 6 spare blocks
    const int a = AddRequest(&script, 0.0, 100, 100, 0);
    const int b = AddRequest(&script, 0.0, 120, 80, 0);
    const int head = AddRequest(&script, 0.05, 300, 100, 0);  // 25 blocks: blocked
    const int next = AddRequest(&script, 0.06, 50, 14, 0);    // 4 blocks: fits
    for (int id : {a, b, head, next}) {
      script.calls.push_back(Call{script.requests[static_cast<size_t>(id)].arrival_time,
                                  Call::Kind::kEnqueue, id});
    }
    script.calls.push_back(Call{0.3, Call::Kind::kCancel, head});
    script.checkpoints = {0.25, 0.5};
    const Outcome runs = RunScript<ColocatedInstance>(script);
    EXPECT_EQ(runs.counters[0].waiting, 2);
    EXPECT_EQ(runs.counters[1].waiting, 0);
    EXPECT_LT(runs.requests[static_cast<size_t>(next)].prefill_start, 0.5);
    ExpectSameOutcome(RunScript<PerStepColocatedInstance>(script), runs);
  }
}

// Chunked mode with a budget the decodes use up: an admitted prompt stalls in the prefill
// queue while decode-only runs go on, and holds a batch slot. Cancelling it frees the slot,
// so the request waiting at the batch cap is admitted at the next boundary.
TEST(ColocatedRunCutTest, CancelOfStalledPromptFreesItsBatchSlot) {
  Script script;
  script.options.mode = Mode::kChunked;
  script.options.chunk_budget = 2;
  script.options.max_batch_size = 3;
  const int a = AddRequest(&script, 0.0, 16, 200, 0);
  const int b = AddRequest(&script, 0.0, 16, 220, 0);
  const int stalled = AddRequest(&script, 1.0, 16, 10, 0);
  const int capped = AddRequest(&script, 1.05, 16, 10, 0);
  for (int id : {a, b, stalled, capped}) {
    script.calls.push_back(Call{script.requests[static_cast<size_t>(id)].arrival_time,
                                Call::Kind::kEnqueue, id});
  }
  script.calls.push_back(Call{1.3, Call::Kind::kCancel, stalled});
  script.checkpoints = {1.25, 1.5};
  const Outcome runs = RunScript<ColocatedInstance>(script);
  EXPECT_EQ(runs.counters[0].waiting, 1);
  EXPECT_EQ(runs.requests[static_cast<size_t>(stalled)].prefill_start, 0.0);
  EXPECT_EQ(runs.counters[1].waiting, 0);
  ExpectSameOutcome(RunScript<PerStepColocatedInstance>(script), runs);
}

// Traced runs. Request spans must come out identical and in the same order: coalesced (the
// benches' setting) and with coalesce_repeats off, where every decode step of a run is its
// own span. Engine-step instance spans must come out as the same multiset.
TEST(ColocatedRunTraceTest, SpansMatchPerStepLoop) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "tracing is compiled out";
  }
  for (bool coalesce : {true, false}) {
    for (bool instance_spans : {false, true}) {
      for (Mode mode : {Mode::kPrefillPriority, Mode::kMixed, Mode::kChunked}) {
        for (Variant variant : {Variant::kTenants, Variant::kAbandon}) {
          SCOPED_TRACE(std::string(coalesce ? "coalesced" : "per-step spans") +
                       (instance_spans ? " + instance spans" : "") + " mode " +
                       std::to_string(static_cast<int>(mode)) + " variant " +
                       std::to_string(static_cast<int>(variant)));
          const Script script = colocated_script::RandomScript(7, mode, variant);
          trace::Recorder::Options options;
          options.coalesce_repeats = coalesce;
          options.instance_spans = instance_spans;
          trace::Recorder oracle(options);
          trace::Recorder runs(options);
          RunScript<PerStepColocatedInstance>(script, &oracle);
          RunScript<ColocatedInstance>(script, &runs);
          auto key = [](const trace::Span& s) {
            return std::tuple(s.request, s.run, static_cast<int>(s.kind), s.pid, s.tid,
                              s.start, s.end, s.detail, s.merged);
          };
          auto split = [&key](const trace::Recorder& r, bool requests) {
            std::vector<decltype(key(trace::Span{}))> out;
            for (const trace::Span& s : r.spans()) {
              if ((s.request >= 0) == requests) {
                out.push_back(key(s));
              }
            }
            return out;
          };
          const auto a = split(oracle, true);
          const auto b = split(runs, true);
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << "request span " << i;
          }
          auto ia = split(oracle, false);
          auto ib = split(runs, false);
          std::sort(ia.begin(), ia.end());
          std::sort(ib.begin(), ib.end());
          EXPECT_EQ(ia, ib);
          EXPECT_EQ(ia.empty(), !instance_spans);
          ASSERT_EQ(oracle.outcomes().size(), runs.outcomes().size());
          for (size_t i = 0; i < oracle.outcomes().size(); ++i) {
            EXPECT_EQ(oracle.outcomes()[i].request, runs.outcomes()[i].request);
            EXPECT_EQ(oracle.outcomes()[i].at, runs.outcomes()[i].at);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace distserve::engine
