// A disaggregated decode instance (§3.2).
//
// Receives requests whose prefill finished elsewhere, pulls their KV caches (§4.3 "combat
// burstiness": the pull is issued only once this instance has reserved memory, so prefill-side
// memory absorbs bursts), then generates the remaining output tokens with continuous batching.
//
// Pipeline parallelism is modelled as `pp` independent micro-batch lanes: real pipelined
// decode keeps pp micro-batches in flight, so each lane steps at the whole-model forward
// latency while aggregate throughput scales with the total resident batch — the steady-state
// behaviour of GPipe-style decode (per-token latency ~= full forward time; throughput ~= B per
// stage time). Requests are assigned to the least-loaded lane on admission.
//
// Lanes are step-indexed and run-length (DESIGN.md §12). A batch's membership changes only
// at step boundaries where a request finishes or a joiner merges, so a lane schedules one
// event per *run* of steps with fixed membership, at the run's next finish boundary, instead
// of one per step. Each lane counts its steps; a member stores the lane step it joined at, so
// its progress is (lane step - join step) and a step end touches only the requests that
// finish. A run's boundary times are accumulated step by step, as a schedule of one event
// per step places them, so every timestamp is bit-identical to that schedule. An event that
// changes a lane mid-run (a joiner below the cap, Abort, a preemption, or anything that may
// let a pending request in) cuts the run at the next step boundary, where the change takes
// effect. The observability accessors count the steps a run has passed, so they are exact at
// any simulated time between events.
//
// Memory admission reserves the full final context (prompt + all output tokens) up front,
// modelling vLLM's preemption-free steady state; the simulator knows output lengths, so this
// is exact rather than optimistic. A watermark knob admits less aggressively for the
// backpressure tests.
#ifndef DISTSERVE_ENGINE_DECODE_INSTANCE_H_
#define DISTSERVE_ENGINE_DECODE_INSTANCE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "engine/kv_block_manager.h"
#include "engine/request_state.h"
#include "model/latency_model.h"
#include "simcore/simulator.h"

namespace distserve::trace {
class Recorder;
}

namespace distserve::engine {

class DecodeInstance {
 public:
  struct Options {
    // Cap on concurrently decoding requests across all lanes.
    int max_batch_size = 512;
    int kv_block_size = 16;
    // Fraction of KV blocks the admission path may use (1.0 = all). Lowering it forces
    // earlier backpressure onto prefill instances.
    double admission_watermark = 1.0;
  };

  // Completion token of one KV pull: calling it tells the instance that the request's KV has
  // arrived. A plain 24-byte copyable value, so the serving layer can carry it through link
  // and watchdog events without allocating; a token issued before a Fail() does nothing.
  class PullDone {
   public:
    void operator()() const { instance_->OnPullDone(request_, epoch_); }
    RequestState* request() const { return request_; }

   private:
    friend class DecodeInstance;
    PullDone(DecodeInstance* instance, RequestState* request, uint64_t epoch)
        : instance_(instance), request_(request), epoch_(epoch) {}

    DecodeInstance* instance_;
    RequestState* request_;
    uint64_t epoch_;
  };

  // Issued when the instance wants a request's KV moved here; the token must be called when
  // the transfer completes. The serving layer routes it over the right link. A null
  // TransferFn (unit tests) completes transfers instantly.
  using TransferFn = std::function<void(RequestState*, PullDone done)>;

  DecodeInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                 int64_t kv_capacity_tokens, Options options, int id);

  DecodeInstance(const DecodeInstance&) = delete;
  DecodeInstance& operator=(const DecodeInstance&) = delete;

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

  // Observability. Exact at any simulated time between events (e.g. after Run(until)): they
  // include the steps a run has passed since its last event, counted in step-start order.
  int64_t tokens_generated() const { return Observed().tokens; }
  int64_t steps_executed() const { return Observed().steps; }
  double busy_seconds() const { return Observed().busy; }
  int64_t resident_requests() const { return resident_count_; }
  int64_t preemptions() const { return preemptions_; }

 private:
  // A request decoding in a lane. Its progress is (lane step - join_step) steps on top of the
  // request's decode_steps_done, which is brought up to date when it leaves the lane.
  struct Member {
    RequestState* request;
    int64_t join_step;
    uint64_t order;  // lane-local join order, which is the batch order
  };
  // Finish-heap entry, a min-heap on (step, order): the lane step at which `request` emits
  // its last token. Equal steps pop in join order.
  struct FinishAt {
    int64_t step;
    uint64_t order;
    RequestState* request;
  };
  // A lane's in-flight step, which is all that orders its boundaries against other lanes'.
  struct Cursor {
    bool running = false;
    int64_t step = 0;            // steps the lane has completed
    int64_t run_first_step = 0;  // `step` when the current run started
    int64_t run_end_step = 0;    // `step` after the boundary the run's event fires at
    double step_end = 0.0;       // end time of the in-flight step: the lane's next boundary
    uint64_t step_key = 0;       // orders the in-flight step's end among equal-time ones
  };
  struct Lane {
    Cursor cur;
    std::vector<Member> active;
    std::vector<RequestState*> joining;  // admitted, waiting for the next step boundary
    std::vector<FinishAt> finishes;      // one entry per active member
    // Step durations of the current run, indexed by step - run_first_step.
    std::vector<double> durations;
    // Sum of context_len() over `active` at step `cur.step`. Each step adds the batch size;
    // integer adds are exactly associative, so this matches the per-step rescan bit for bit.
    int64_t ctx_tokens = 0;
    int64_t quiet_steps = 0;  // steps since the lane's last cut: bounds the next run's length
    uint64_t next_order = 0;
    simcore::EventHandle event;  // the run's boundary event
  };
  // Instance counters as of some simulated time.
  struct Totals {
    int64_t steps;
    int64_t tokens;
    double busy;
  };

  // Admission scan over pending_: highest priority first, FCFS within a class; plain front()
  // when no prioritized request was ever submitted (single-tenant fast path).
  std::deque<RequestState*>::iterator PickPending();
  // Evicts the lowest-priority joining/active resident strictly below `floor`: releases its
  // KV, emits a preempt span, and hands it to on_preempt_. Returns false when no such victim.
  bool PreemptLowestBelow(int floor);

  void TryAdmit();
  // A pull issued under `epoch` completed (PullDone).
  void OnPullDone(RequestState* request, uint64_t epoch);
  void OnTransferDone(RequestState* request);
  void LaneMaybeStep(size_t lane_idx);
  void StartRun(size_t lane_idx);
  void ScheduleBoundary(size_t lane_idx, double when);
  void LaneBoundary(size_t lane_idx);
  // Ends the lane's run at the in-flight step's boundary (no-op when that boundary already
  // has the run's event).
  void Cut(size_t lane_idx);
  // Cuts the lane whose boundary comes next, so its admission pass runs as an event.
  void CutNextBoundary();
  // Smallest step key among the lanes whose run event fires at `t`; all keys when none does.
  uint64_t EventKeyAt(double t) const;
  // Removes an active member, folding its lane progress into decode_steps_done.
  void Leave(Lane& lane, RequestState* request);
  // Removes `request` from whichever lane holds it (joining or active), cutting an active
  // member's run.
  void RemoveFromLanes(RequestState* request);

  // Passes, in step-start order, every run-internal boundary before (t, key): the lane steps,
  // the counters and the trace catch up to that point. Every entry point calls it first, so
  // the lane state it acts on is exact at that moment.
  void Sync(double t, uint64_t key);
  // Sync's horizon for a call from outside this instance's events: boundaries strictly
  // before now, or up to and including now after a Run(until) window closed.
  uint64_t ExternalKey() const;
  // Walks the boundaries Sync passes; `cursor(i)` is lane i's cursor, advanced in place.
  template <typename CursorAt, typename OnPass>
  void WalkBoundaries(CursorAt cursor, double t, uint64_t key, uint64_t* keys,
                      OnPass on_pass) const;
  Totals Observed() const;
  // Emits the trace of a step starting at `start` on `lane_idx` (tracing on).
  void TraceStep(size_t lane_idx, double start, double duration);
  int per_lane_cap() const;
  // Debug-build lane invariants (context sums, KV residency, unique membership).
  void CheckInvariants() const;

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
  // Step-start counter: a step's key orders its end among equal-time boundaries. A step that
  // started earlier ends first, as under (time, seq) event order with one event per step.
  uint64_t step_keys_ = 0;

  // Counters as of the last Sync (Observed() adds the boundaries passed since).
  int64_t tokens_generated_ = 0;
  int64_t steps_executed_ = 0;
  double busy_seconds_ = 0.0;
  int64_t preemptions_ = 0;
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_DECODE_INSTANCE_H_
