// Property test: the step-indexed, run-length decode lanes against the one-event-per-step
// loop they replaced. PerStepDecodeInstance below is that loop, kept verbatim apart from its
// name as the oracle; both run the same scripts (decode_lane_script.h) side by side and must
// agree on everything observable, bit for bit: per-request timestamps, decode progress and
// phase, completion order, and the instance counters read at Run(until) checkpoints.
//
// Beyond random scripts, the tests construct exact ties: calls and checkpoints placed at
// exactly the oracle's step-boundary times (read off its instance spans), and lanes that
// start together with identical requests, so their boundaries coincide across lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/prof.h"
#include "decode_lane_script.h"
#include "engine/kv_block_manager.h"
#include "trace/recorder.h"

namespace distserve::engine {
namespace {

// --- The one-event-per-step decode instance (oracle) ------------------------------------

class PerStepDecodeInstance {
 public:
  struct Options {
    // Cap on concurrently decoding requests across all lanes.
    int max_batch_size = 512;
    int kv_block_size = 16;
    // Fraction of KV blocks the admission path may use (1.0 = all). Lowering it forces
    // earlier backpressure onto prefill instances.
    double admission_watermark = 1.0;
  };

  // Issued when the instance wants a request's KV moved here; the callback must fire when the
  // transfer completes. The serving layer routes it over the right link. A null TransferFn
  // (unit tests) completes transfers instantly.
  using TransferFn = std::function<void(RequestState*, std::function<void()> done)>;

  PerStepDecodeInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                 int64_t kv_capacity_tokens, Options options, int id);

  PerStepDecodeInstance(const PerStepDecodeInstance&) = delete;
  PerStepDecodeInstance& operator=(const PerStepDecodeInstance&) = delete;

  void set_transfer_fn(TransferFn fn) { transfer_fn_ = std::move(fn); }
  void set_on_complete(std::function<void(RequestState*)> fn) { on_complete_ = std::move(fn); }

  // Fired when a resident request is evicted by a higher-priority tenant's admission. The
  // victim's decode-side KV is gone; the serving layer must re-prefill it (the same recovery
  // path as a KV-loss fault).
  void set_on_preempt(std::function<void(RequestState*)> fn) { on_preempt_ = std::move(fn); }

  // Optional span recorder (trace/recorder.h); null leaves the hot path untouched.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Hands over a request whose prefill just finished (first token already produced).
  // Requires output_len >= 2 (single-token requests never reach decode).
  void Submit(RequestState* request);

  // Fault injection (serving::FaultPlan). Fail() kills the instance: pending, transferring,
  // joining, and active requests are dropped, the KV pool is cleared, and scheduled events are
  // invalidated via an epoch bump; the serving layer re-routes the stranded requests (those
  // whose pull had completed lost their KV and must re-prefill). Recover() brings the instance
  // back empty. Both idempotent.
  void Fail();
  void Recover();
  bool alive() const { return alive_; }

  // Withdraws one request this instance currently owns (its prefill died, or its ingress link
  // exhausted retries and the serving layer re-routes it). Releases any KV reservation; the
  // request's own attempt counter squashes in-flight transfer callbacks.
  void Abort(RequestState* request);

  // Dispatch load signal (§4.3: dispatch to the least loaded decoding instance).
  int64_t load() const { return static_cast<int64_t>(pending_.size()) + resident_count_; }

  int id() const { return id_; }
  const KvBlockManager& kv() const { return kv_; }
  const model::LatencyModel& latency_model() const { return latency_model_; }

  // Observability.
  int64_t tokens_generated() const { return tokens_generated_; }
  int64_t steps_executed() const { return steps_executed_; }
  double busy_seconds() const { return busy_seconds_; }
  int64_t resident_requests() const { return resident_count_; }
  int64_t preemptions() const { return preemptions_; }

 private:
  // Admission scan over pending_: highest priority first, FCFS within a class; plain front()
  // when no prioritized request was ever submitted (single-tenant fast path).
  std::deque<RequestState*>::iterator PickPending();
  // Evicts the lowest-priority joining/active resident strictly below `floor`: releases its
  // KV, emits a preempt span, and hands it to on_preempt_. Returns false when no such victim.
  bool PreemptLowestBelow(int floor);
  struct Lane {
    std::vector<RequestState*> active;
    std::vector<RequestState*> joining;  // admitted, waiting for the next step boundary
    // Invariant: sum of context_len() over `active` — maintained incrementally on
    // admit/evict/step so forming a batch is O(1), not O(batch). Integer adds are exactly
    // associative, so this matches the per-step rescan bit for bit.
    int64_t ctx_tokens = 0;
    bool step_in_flight = false;
  };

  void TryAdmit();
  void OnTransferDone(RequestState* request);
  void LaneMaybeStep(size_t lane_idx);
  void LaneStepEnd(size_t lane_idx);
  int per_lane_cap() const;

  simcore::Simulator* sim_;
  model::LatencyModel latency_model_;
  KvBlockManager kv_;
  Options options_;
  int id_;

  TransferFn transfer_fn_;
  std::function<void(RequestState*)> on_complete_;
  std::function<void(RequestState*)> on_preempt_;
  trace::Recorder* recorder_ = nullptr;

  // Fault state: events scheduled before a Fail() carry the old epoch and become no-ops.
  bool alive_ = true;
  uint64_t epoch_ = 0;

  std::deque<RequestState*> pending_;  // waiting for memory reservation
  std::vector<Lane> lanes_;
  int64_t resident_count_ = 0;  // admitted (transferring, joining, or active)
  // True once any submitted request carried priority != 0; gates the admission scan so
  // single-tenant runs keep the plain FCFS front() path.
  bool priorities_active_ = false;

  int64_t tokens_generated_ = 0;
  int64_t steps_executed_ = 0;
  double busy_seconds_ = 0.0;
  int64_t preemptions_ = 0;
};

PerStepDecodeInstance::PerStepDecodeInstance(simcore::Simulator* sim,
                                             model::LatencyModel latency_model,
                                             int64_t kv_capacity_tokens, Options options, int id)
    : sim_(sim),
      latency_model_(std::move(latency_model)),
      kv_(kv_capacity_tokens, options.kv_block_size),
      options_(options),
      id_(id),
      lanes_(static_cast<size_t>(latency_model_.par().pp)) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_GT(options_.max_batch_size, 0);
  DS_CHECK_GT(options_.admission_watermark, 0.0);
  DS_CHECK_LE(options_.admission_watermark, 1.0);
}

int PerStepDecodeInstance::per_lane_cap() const {
  const int lanes = static_cast<int>(lanes_.size());
  return std::max(1, options_.max_batch_size / lanes);
}

void PerStepDecodeInstance::Submit(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK(alive_) << "submit on failed decode instance " << id_;
  DS_CHECK_GE(request->request.output_len, 2)
      << "single-token requests must not be submitted to decode";
  request->decode_instance = id_;
  request->phase = RequestPhase::kDecodePending;
  priorities_active_ = priorities_active_ || request->request.priority != 0;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeAdmit, trace::DecodePid(id_), 0));
  pending_.push_back(request);
  TryAdmit();
}

std::deque<RequestState*>::iterator PerStepDecodeInstance::PickPending() {
  if (!priorities_active_) {
    return pending_.begin();  // single-tenant fast path: plain FCFS
  }
  auto best = pending_.begin();
  for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;  // strictly greater: FCFS stays stable within a class
    }
  }
  return best;
}

bool PerStepDecodeInstance::PreemptLowestBelow(int floor) {
  RequestState* victim = nullptr;
  for (Lane& lane : lanes_) {
    for (const std::vector<RequestState*>* members : {&lane.joining, &lane.active}) {
      for (RequestState* r : *members) {
        if (r->request.priority >= floor) {
          continue;
        }
        // Lowest priority wins; ties go to the latest-scanned (least decode progress bias).
        if (victim == nullptr || r->request.priority <= victim->request.priority) {
          victim = r;
        }
      }
    }
  }
  if (victim == nullptr) {
    return false;
  }
  kv_.Release(victim->request.id);
  --resident_count_;
  for (Lane& lane : lanes_) {
    std::erase(lane.joining, victim);
    if (std::erase(lane.active, victim) > 0) {
      lane.ctx_tokens -= victim->context_len();
    }
  }
  ++victim->preemptions;
  ++preemptions_;
  DS_TRACE(recorder_, Transition(victim->request.id, sim_->now(), trace::SpanKind::kPreempt,
                                 trace::DecodePid(id_), 0, victim->preemptions));
  if (on_preempt_) {
    on_preempt_(victim);  // serving layer re-prefills: the decode-side KV is gone
  }
  return true;
}

void PerStepDecodeInstance::Fail() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  ++epoch_;  // invalidates scheduled lane steps and in-flight transfer completions
  pending_.clear();
  for (Lane& lane : lanes_) {
    lane.active.clear();
    lane.joining.clear();
    lane.ctx_tokens = 0;
    lane.step_in_flight = false;
  }
  resident_count_ = 0;
  kv_.Clear();
}

void PerStepDecodeInstance::Recover() {
  if (alive_) {
    return;
  }
  DS_CHECK(pending_.empty());
  alive_ = true;
}

void PerStepDecodeInstance::Abort(RequestState* request) {
  DS_CHECK(request != nullptr);
  if (!alive_) {
    return;  // Fail() already dropped everything
  }
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (*it == request) {
      pending_.erase(it);
      return;  // not yet admitted: no reservation, no lane membership
    }
  }
  if (!kv_.Holds(request->request.id)) {
    return;  // not ours (already completed or never admitted)
  }
  kv_.Release(request->request.id);
  --resident_count_;
  for (Lane& lane : lanes_) {
    std::erase(lane.joining, request);
    if (std::erase(lane.active, request) > 0) {
      lane.ctx_tokens -= request->context_len();
    }
  }
  // Freed memory may admit a pending request right away.
  TryAdmit();
}

void PerStepDecodeInstance::TryAdmit() {
  if (pending_.empty()) {
    return;  // every step end lands here; skip the watermark math when there is no queue
  }
  const int64_t usable_blocks = static_cast<int64_t>(
      static_cast<double>(kv_.total_blocks()) * options_.admission_watermark);
  while (!pending_.empty()) {
    auto it = PickPending();
    RequestState* request = *it;
    const int64_t needed_tokens = request->request.total_len();
    const int64_t needed_blocks = kv_.BlocksForTokens(needed_tokens);
    DS_CHECK_LE(needed_blocks, usable_blocks)
        << "request " << request->request.id << " can never fit decode instance " << id_;
    if (kv_.used_blocks() + needed_blocks > usable_blocks) {
      // A blocked higher-priority tenant may evict the lowest-priority resident (strictly
      // below it); otherwise wait for completions — the prefill side buffers the KV.
      if (!priorities_active_ || !PreemptLowestBelow(request->request.priority)) {
        break;
      }
      continue;  // re-evaluate with the freed blocks
    }
    const bool reserved = kv_.Reserve(request->request.id, needed_tokens);
    DS_CHECK(reserved);
    pending_.erase(it);
    ++resident_count_;
    request->record.transfer_start = sim_->now();
    request->phase = RequestPhase::kTransferring;
    DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                   trace::SpanKind::kKvTransfer, trace::DecodePid(id_), 0,
                                   request->attempt));
    if (transfer_fn_) {
      transfer_fn_(request, [this, request, epoch = epoch_] {
        if (epoch != epoch_) {
          return;  // the instance died while the pull was in flight
        }
        OnTransferDone(request);
      });
    } else {
      OnTransferDone(request);
    }
  }
}

void PerStepDecodeInstance::OnTransferDone(RequestState* request) {
  request->record.transfer_end = sim_->now();
  request->phase = RequestPhase::kDecoding;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeQueue, trace::DecodePid(id_), 0));
  // Least-loaded lane assignment.
  size_t best = 0;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const size_t lane_load = lanes_[i].active.size() + lanes_[i].joining.size();
    if (lane_load < best_load) {
      best_load = lane_load;
      best = i;
    }
  }
  lanes_[best].joining.push_back(request);
  LaneMaybeStep(best);
}

void PerStepDecodeInstance::LaneMaybeStep(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  if (lane.step_in_flight) {
    return;
  }
  // Merge joiners up to the lane cap, in arrival order; they start decoding this step. The
  // merged prefix leaves `joining` in one erase, so a burst of k joiners costs O(k), not
  // O(k * queue length).
  const int cap = per_lane_cap();
  size_t merged = 0;
  while (merged < lane.joining.size() && static_cast<int>(lane.active.size()) < cap) {
    RequestState* request = lane.joining[merged++];
    request->record.decode_start = sim_->now();
    lane.active.push_back(request);
    lane.ctx_tokens += request->context_len();
  }
  lane.joining.erase(lane.joining.begin(),
                     lane.joining.begin() + static_cast<std::ptrdiff_t>(merged));
  if (lane.active.empty()) {
    return;
  }
  const double step_time = latency_model_.FullTime(model::BatchWorkload::Decode(
      static_cast<int64_t>(lane.active.size()), lane.ctx_tokens));
  if (DS_TRACE_ON(recorder_)) {
    const double now = sim_->now();
    for (RequestState* r : lane.active) {
      // Coalesced by the recorder into one contiguous decode_step run per stretch.
      recorder_->Transition(r->request.id, now, trace::SpanKind::kDecodeStep,
                            trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                            r->decode_steps_done);
    }
    recorder_->InstanceSpan(trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                            trace::SpanKind::kDecodeStep, now, now + step_time,
                            static_cast<int64_t>(lane.active.size()));
  }
  lane.step_in_flight = true;
  busy_seconds_ += step_time;
  ++steps_executed_;
  sim_->ScheduleAfter(step_time, [this, epoch = epoch_, lane_idx] {
    if (epoch != epoch_) {
      return;  // the instance died mid-step
    }
    LaneStepEnd(lane_idx);
  });
}

void PerStepDecodeInstance::LaneStepEnd(size_t lane_idx) {
  DS_PROF_ZONE("decode.lane_step_end");
  Lane& lane = lanes_[lane_idx];
  lane.step_in_flight = false;
  // Compact survivors in place (no per-step vector) and keep the lane's running context sum
  // current: every stepped request grows by one token; completers leave with their final
  // context.
  size_t write = 0;
  for (RequestState* r : lane.active) {
    ++r->decode_steps_done;
    ++lane.ctx_tokens;
    ++tokens_generated_;
    if (r->remaining_decode_steps() <= 0) {
      lane.ctx_tokens -= r->context_len();
      r->record.completion = sim_->now();
      r->phase = RequestPhase::kDone;
      DS_TRACE(recorder_, Finish(r->request.id, sim_->now()));
      kv_.Release(r->request.id);
      --resident_count_;
      if (on_complete_) {
        on_complete_(r);
      }
    } else {
      lane.active[write++] = r;
    }
  }
  lane.active.resize(write);
  // Freed memory may admit pending requests before the next step forms.
  TryAdmit();
  LaneMaybeStep(lane_idx);
}


// --- Harness ------------------------------------------------------------------------------

using lane_script::Call;
using lane_script::Outcome;
using lane_script::RunScript;
using lane_script::Script;

void ExpectSameOutcome(const Outcome& oracle, const Outcome& lanes) {
  ASSERT_EQ(oracle.requests.size(), lanes.requests.size());
  for (size_t i = 0; i < oracle.requests.size(); ++i) {
    const auto& a = oracle.requests[i];
    const auto& b = lanes.requests[i];
    EXPECT_EQ(a.phase, b.phase) << "request " << i;
    EXPECT_EQ(a.decode_steps_done, b.decode_steps_done) << "request " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << "request " << i;
    EXPECT_EQ(a.transfer_start, b.transfer_start) << "request " << i;
    EXPECT_EQ(a.transfer_end, b.transfer_end) << "request " << i;
    EXPECT_EQ(a.decode_start, b.decode_start) << "request " << i;
    EXPECT_EQ(a.completion, b.completion) << "request " << i;
  }
  EXPECT_EQ(oracle.completion_order, lanes.completion_order);
  ASSERT_EQ(oracle.counters.size(), lanes.counters.size());
  for (size_t k = 0; k < oracle.counters.size(); ++k) {
    const auto& a = oracle.counters[k];
    const auto& b = lanes.counters[k];
    EXPECT_EQ(a.time, b.time) << "checkpoint " << k;
    EXPECT_EQ(a.steps, b.steps) << "checkpoint " << k << " at " << a.time;
    EXPECT_EQ(a.tokens, b.tokens) << "checkpoint " << k << " at " << a.time;
    EXPECT_EQ(a.busy, b.busy) << "checkpoint " << k << " at " << a.time;
    EXPECT_EQ(a.resident, b.resident) << "checkpoint " << k;
    EXPECT_EQ(a.load, b.load) << "checkpoint " << k;
    EXPECT_EQ(a.used_blocks, b.used_blocks) << "checkpoint " << k;
    EXPECT_EQ(a.preemptions, b.preemptions) << "checkpoint " << k;
  }
  EXPECT_EQ(oracle.Digest(), lanes.Digest());
}

void ExpectMatchesOracle(const Script& script) {
  ExpectSameOutcome(RunScript<PerStepDecodeInstance>(script), RunScript<DecodeInstance>(script));
}

// The oracle's step-boundary times: its instance spans end at every one.
std::vector<double> BoundaryTimes(const Script& script) {
  trace::Recorder::Options options;
  options.instance_spans = true;
  trace::Recorder recorder(options);
  RunScript<PerStepDecodeInstance>(script, &recorder);
  std::vector<double> times;
  for (const trace::Span& span : recorder.spans()) {
    if (span.request < 0 && span.kind == trace::SpanKind::kDecodeStep) {
      times.push_back(span.end);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

bool HasCallAt(const Script& script, double t) {
  return std::any_of(script.calls.begin(), script.calls.end(),
                     [t](const Call& c) { return c.time == t; });
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
void AddTie(Script* script, double t, int what, bool scenarios, std::mt19937_64* rng) {
  const bool scheduled_ok = !IsCheckpoint(*script, t);
  const bool direct_ok = !HasCallAt(*script, t) || IsCheckpoint(*script, t);
  const int victim = std::uniform_int_distribution<int>(
      0, static_cast<int>(script->requests.size()) - 1)(*rng);
  const int input_len = std::uniform_int_distribution<int>(16, 300)(*rng);
  const int output_len = std::uniform_int_distribution<int>(2, 40)(*rng);
  switch (what) {
    case 0:  // a checkpoint read
      if (direct_ok) {
        AddCheckpoint(script, t);
      }
      break;
    case 1:
      if (scheduled_ok) {
        script->calls.push_back(Call{t, Call::Kind::kAbort, victim});
      }
      break;
    case 2:
      if (scheduled_ok && scenarios) {
        script->calls.push_back(Call{t, Call::Kind::kFail, -1});
        script->calls.push_back(Call{t + 0.05, Call::Kind::kRecover, -1});
      }
      break;
    case 3:
      if (scheduled_ok) {
        const int id = AddRequest(script, t, input_len, output_len, scenarios ? 2 : 0);
        script->calls.push_back(Call{t, Call::Kind::kSubmit, id});
      }
      break;
    case 4:
      if (direct_ok) {
        AddCheckpoint(script, t);
        const int id = AddRequest(script, t, input_len, output_len, scenarios ? 2 : 0);
        script->calls.push_back(Call{t, Call::Kind::kSubmit, id, /*direct=*/true});
      }
      break;
    default:
      if (direct_ok) {
        AddCheckpoint(script, t);
        script->calls.push_back(Call{t, Call::Kind::kAbort, victim, /*direct=*/true});
      }
      break;
  }
}

using Grid = std::tuple<int /*pp*/, bool /*delayed transfer*/, bool /*priorities+faults*/>;

class DecodeLaneOracleTest : public ::testing::TestWithParam<Grid> {};

TEST_P(DecodeLaneOracleTest, RandomScriptsMatchPerStepLoop) {
  const auto [pp, delayed, scenarios] = GetParam();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(lane_script::RandomScript(seed, pp, delayed, scenarios, scenarios));
  }
}

// Grows a script one exact tie at a time: each round reads the oracle's boundary times and
// places a call (a new request, an abort, a higher-priority arrival, a fault; scheduled, or
// made directly after a Run(until) window) or a checkpoint at exactly one of them, then
// checks the lanes against the oracle on the result.
TEST_P(DecodeLaneOracleTest, ExactTieBoundariesMatchPerStepLoop) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "boundary times are read from trace spans";
  }
  const auto [pp, delayed, scenarios] = GetParam();
  for (uint64_t seed = 100; seed < 106; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Script script = lane_script::RandomScript(seed, pp, delayed, scenarios, scenarios, 24);
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 10; ++round) {
      const std::vector<double> bounds = BoundaryTimes(script);
      ASSERT_FALSE(bounds.empty());
      const double t = bounds[std::uniform_int_distribution<size_t>(
          bounds.size() / 4, bounds.size() - 1)(rng)];
      AddTie(&script, t, std::uniform_int_distribution<int>(0, 5)(rng), scenarios, &rng);
      SCOPED_TRACE("round " + std::to_string(round));
      ExpectMatchesOracle(script);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, DecodeLaneOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Grid>& info) {
      return "pp" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_delayed" : "_instant") +
             (std::get<2>(info.param) ? "_tenants_faults" : "_plain");
    });

// Lanes that start together with identical requests step in lockstep, so their boundaries
// coincide exactly across lanes; output lengths differ, so some lanes finish (real events)
// while others pass the same instant inside a run. Aborts, arrivals and checkpoints land on
// those shared instants.
TEST(DecodeLaneLockstepTest, CoincidentLaneBoundariesMatchPerStepLoop) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "boundary times are read from trace spans";
  }
  for (int pp : {2, 4}) {
    for (bool delayed : {false, true}) {
      SCOPED_TRACE("pp " + std::to_string(pp) + (delayed ? " delayed" : " instant"));
      Script script;
      script.pp = pp;
      script.delayed_transfer = delayed;
      script.options.max_batch_size = 3 * pp;
      for (int i = 0; i < 4 * pp; ++i) {
        workload::Request req;
        req.id = i;
        req.input_len = 128;
        req.output_len = 6 + 7 * (i % 5);
        req.priority = i % 3 == 0 ? 1 : 0;
        script.requests.push_back(req);
        script.calls.push_back(Call{0.0, Call::Kind::kSubmit, i});
      }
      ExpectMatchesOracle(script);
      std::mt19937_64 rng(static_cast<uint64_t>(pp * 10 + delayed));
      for (int round = 0; round < 12; ++round) {
        const std::vector<double> bounds = BoundaryTimes(script);
        const double t =
            bounds[std::uniform_int_distribution<size_t>(0, bounds.size() - 1)(rng)];
        AddTie(&script, t, round % 6, /*scenarios=*/true, &rng);
        SCOPED_TRACE("round " + std::to_string(round));
        ExpectMatchesOracle(script);
      }
    }
  }
}

// Lanes 0 and 1 step in lockstep; lane 1's run ends at boundary T (a finish) while a joiner
// cuts lane 0's run at the same T. The cut's event is queued after lane 1's run event, but
// lane 0's step started first, so the per-step loop ended it first: lane 1 must wait. The
// order shows in busy_seconds (float additions); a request waiting for memory is admitted
// at lane 1's boundary.
TEST(DecodeLaneLockstepTest, CutAtAnotherLanesRunEndKeepsStepOrder) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "boundary times are read from trace spans";
  }
  for (int input_len = 100; input_len < 400; input_len += 23) {
    SCOPED_TRACE("input " + std::to_string(input_len));
    Script script;
    script.pp = 2;
    auto blocks = [](int tokens) { return (tokens + 15) / 16; };
    // Room for r0..r3 and the joiner plus one block: the last request waits for r1's KV.
    script.kv_capacity = 16 * (blocks(input_len + 40) + blocks(input_len + 10) +
                               2 * blocks(input_len + 60) + blocks(32 + 20) + 1);
    const int r0 = AddRequest(&script, 0.0, input_len, 40, 0);  // lane 0
    const int r1 = AddRequest(&script, 0.0, input_len, 10, 0);  // lane 1, ends at T
    const int r2 = AddRequest(&script, 0.0, input_len, 60, 0);  // lane 0
    const int r3 = AddRequest(&script, 0.0, input_len, 60, 0);  // lane 1
    for (int id : {r0, r1, r2, r3}) {
      script.calls.push_back(Call{0.0, Call::Kind::kSubmit, id});
    }
    const std::vector<double> bounds = BoundaryTimes(script);
    ASSERT_GT(bounds.size(), 9u);
    // Both lanes pass bounds[k] together; r1 finishes at bounds[8].
    const double mid = bounds[7] + 0.5 * (bounds[8] - bounds[7]);
    const int joiner = AddRequest(&script, mid, 32, 20, 0);
    script.calls.push_back(Call{mid, Call::Kind::kSubmit, joiner});
    const int waiting = AddRequest(&script, mid, 16, 4, 0);
    script.calls.push_back(Call{mid, Call::Kind::kSubmit, waiting});
    ExpectMatchesOracle(script);
  }
}

// Lane 0's run ends at T (r0 finishes) at the instant lane 1, a step behind in start order,
// passes T inside its run. After Run(until = T) the per-step loop had fired both boundaries,
// so a direct abort of lane 1's request then sees T's token already generated.
TEST(DecodeLaneLockstepTest, DirectCallAfterCoincidentBoundariesSeesBothPassed) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "boundary times are read from trace spans";
  }
  for (int input_len : {64, 200, 333}) {
    SCOPED_TRACE("input " + std::to_string(input_len));
    Script script;
    script.pp = 2;
    const int r0 = AddRequest(&script, 0.0, input_len, 10, 0);  // lane 0, ends at T
    const int r1 = AddRequest(&script, 0.0, input_len, 40, 0);  // lane 1
    for (int id : {r0, r1}) {
      script.calls.push_back(Call{0.0, Call::Kind::kSubmit, id});
    }
    const std::vector<double> bounds = BoundaryTimes(script);
    ASSERT_GT(bounds.size(), 9u);
    const double t = bounds[8];
    script.checkpoints.push_back(t);
    script.calls.push_back(Call{t, Call::Kind::kAbort, r1, /*direct=*/true});
    const Outcome lanes = RunScript<DecodeInstance>(script);
    EXPECT_EQ(lanes.requests[static_cast<size_t>(r1)].decode_steps_done, 9);
    ExpectSameOutcome(RunScript<PerStepDecodeInstance>(script), lanes);
  }
}

// A low-priority request whose KV pull completes while a higher-priority request waits for
// memory is a new preemption victim: the per-step loop evicts it at the next boundary of any
// lane, not at the next finish.
TEST(DecodeLanePreemptTest, JoinerBelowBlockedHeadIsEvictedAtNextBoundary) {
  for (int pp : {1, 2}) {
    SCOPED_TRACE("pp " + std::to_string(pp));
    Script script;
    script.pp = pp;
    script.delayed_transfer = true;  // pulls take (1 + input_len % 37) ms
    script.options.max_batch_size = pp;  // pp 1: the joiner waits at the cap
    script.kv_capacity = 30 * 16;
    const int r0 = AddRequest(&script, 0.0, 74, 200, 2);   // 1 ms pull, decodes long
    const int r1 = AddRequest(&script, 0.0, 67, 100, 0);   // 31 ms pull
    const int r2 = AddRequest(&script, 0.01, 100, 50, 1);  // blocked, no victim yet
    for (int id : {r0, r1, r2}) {
      script.calls.push_back(Call{script.requests[static_cast<size_t>(id)].arrival_time,
                                  Call::Kind::kSubmit, id});
    }
    const Outcome lanes = RunScript<DecodeInstance>(script);
    EXPECT_EQ(lanes.requests[static_cast<size_t>(r1)].preemptions, 1);
    ExpectSameOutcome(RunScript<PerStepDecodeInstance>(script), lanes);
  }
}

// Traced runs: with per-request spans only (the benches' setting) the trace is identical,
// span for span in order; with instance spans on as well, the same spans come out (a run's
// step spans are appended when its boundaries are passed, so only their order may differ).
TEST(DecodeLaneTraceTest, SpansMatchPerStepLoop) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "tracing is compiled out";
  }
  for (bool instance_spans : {false, true}) {
    for (int pp : {1, 2, 4}) {
      for (uint64_t seed : {5u, 6u}) {
        SCOPED_TRACE("pp " + std::to_string(pp) + " seed " + std::to_string(seed) +
                     (instance_spans ? " instance spans" : ""));
        const Script script = lane_script::RandomScript(seed, pp, /*delayed_transfer=*/true,
                                                        /*priorities=*/true, /*faults=*/true);
        trace::Recorder::Options options;
        options.instance_spans = instance_spans;
        trace::Recorder oracle(options);
        trace::Recorder lanes(options);
        RunScript<PerStepDecodeInstance>(script, &oracle);
        RunScript<DecodeInstance>(script, &lanes);
        std::vector<trace::Span> a = oracle.spans();
        std::vector<trace::Span> b = lanes.spans();
        ASSERT_EQ(a.size(), b.size());
        auto key = [](const trace::Span& s) {
          return std::tuple(s.request, s.run, static_cast<int>(s.kind), s.pid, s.tid, s.start,
                            s.end, s.detail, s.merged);
        };
        auto by_key = [&key](const trace::Span& x, const trace::Span& y) {
          return key(x) < key(y);
        };
        if (instance_spans) {
          std::sort(a.begin(), a.end(), by_key);
          std::sort(b.begin(), b.end(), by_key);
        }
        for (size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(key(a[i]), key(b[i])) << "span " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace distserve::engine
