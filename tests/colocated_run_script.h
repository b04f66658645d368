// Scripted colocated-instance runs shared by the colocated-run golden and oracle tests.
//
// A Script is a set of requests plus timed Enqueue/Cancel/Timeout calls, scheduled before the
// run starts or made directly between Run(until) windows, and the checkpoints ending those
// windows, at which the instance counters are read from outside the event loop. RunScript
// drives any class with ColocatedInstance's interface through it and returns everything
// observable: per-request timestamps, progress and phase, the order of completions and
// teardowns, and the counters at every checkpoint. Cancels and timeouts follow the vLLM
// system's rule: a request already terminal or already being torn down is left alone.
#ifndef DISTSERVE_TESTS_COLOCATED_RUN_SCRIPT_H_
#define DISTSERVE_TESTS_COLOCATED_RUN_SCRIPT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "baselines/vllm_system.h"
#include "cluster/gpu_spec.h"
#include "engine/colocated_instance.h"
#include "engine/request_state.h"
#include "model/latency_model.h"
#include "simcore/simulator.h"
#include "trace/recorder.h"

namespace distserve::engine::colocated_script {

using Mode = ColocatedInstance::Options::SchedulingMode;

struct Call {
  enum class Kind { kEnqueue, kCancel, kTimeout };
  double time = 0.0;
  Kind kind = Kind::kEnqueue;
  int request = -1;  // index into Script::requests
  // Made from outside the event loop, right after the Run(until) window ending at `time`
  // (which must be a checkpoint), instead of as a scheduled event.
  bool direct = false;
};

struct Script {
  ColocatedInstance::Options options;
  int64_t kv_capacity = 1 << 20;
  std::vector<workload::Request> requests;
  std::vector<Call> calls;
  std::vector<double> checkpoints;  // ascending Run(until) horizons
};

struct Counters {
  double time = 0.0;
  int64_t steps = 0;
  int64_t tokens = 0;
  double busy = 0.0;
  int64_t load = 0;
  int64_t waiting = 0;
  int64_t used_blocks = 0;
  int64_t preemptions = 0;
  int64_t cancellations = 0;
};

struct RequestOutcome {
  RequestPhase phase = RequestPhase::kPending;
  int decode_steps_done = 0;
  int prefill_tokens_done = 0;
  int preemptions = 0;
  double prefill_start = 0.0;
  double first_token = 0.0;
  double decode_start = 0.0;
  double completion = 0.0;
};

struct Outcome {
  std::vector<RequestOutcome> requests;
  // Completions as the id, teardowns (cancel or timeout) as -1 - id, in callback order.
  std::vector<int> order;
  std::vector<Counters> counters;  // one per checkpoint, then one after the drain
  int64_t events = 0;              // simulator events fired; not part of the digest

  // FNV-1a over every field, doubles by bit pattern.
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ull;
    auto add = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    auto add_double = [&add](double d) { add(std::bit_cast<uint64_t>(d)); };
    for (const RequestOutcome& r : requests) {
      add(static_cast<uint64_t>(r.phase));
      add(static_cast<uint64_t>(r.decode_steps_done));
      add(static_cast<uint64_t>(r.prefill_tokens_done));
      add(static_cast<uint64_t>(r.preemptions));
      add_double(r.prefill_start);
      add_double(r.first_token);
      add_double(r.decode_start);
      add_double(r.completion);
    }
    for (int id : order) {
      add(static_cast<uint64_t>(static_cast<int64_t>(id)));
    }
    for (const Counters& c : counters) {
      add_double(c.time);
      add(static_cast<uint64_t>(c.steps));
      add(static_cast<uint64_t>(c.tokens));
      add_double(c.busy);
      add(static_cast<uint64_t>(c.load));
      add(static_cast<uint64_t>(c.waiting));
      add(static_cast<uint64_t>(c.used_blocks));
      add(static_cast<uint64_t>(c.preemptions));
      add(static_cast<uint64_t>(c.cancellations));
    }
    return h;
  }
};

template <typename Instance>
Counters ReadCounters(const Instance& instance, const simcore::Simulator& sim) {
  Counters c;
  c.time = sim.now();
  c.steps = instance.steps_executed();
  c.tokens = instance.tokens_generated();
  c.busy = instance.busy_seconds();
  c.load = instance.load();
  c.waiting = static_cast<int64_t>(instance.waiting_count());
  c.used_blocks = instance.kv().used_blocks();
  c.preemptions = instance.preemptions();
  c.cancellations = instance.cancellations();
  return c;
}

template <typename Instance>
Outcome RunScript(const Script& script, trace::Recorder* recorder = nullptr) {
  simcore::Simulator sim;
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  typename Instance::Options options;
  options.mode = static_cast<typename Instance::Options::SchedulingMode>(script.options.mode);
  options.max_batch_size = script.options.max_batch_size;
  options.max_prefill_tokens_per_step = script.options.max_prefill_tokens_per_step;
  options.chunk_budget = script.options.chunk_budget;
  options.kv_block_size = script.options.kv_block_size;
  options.cpu_overhead_per_step = script.options.cpu_overhead_per_step;
  Instance instance(&sim, lm, script.kv_capacity, options, 0);
  instance.set_recorder(recorder);

  std::vector<std::unique_ptr<RequestState>> states;
  for (const workload::Request& req : script.requests) {
    states.push_back(std::make_unique<RequestState>(req));
  }
  Outcome out;
  instance.set_on_complete(
      [&out](RequestState* r) { out.order.push_back(static_cast<int>(r->request.id)); });
  instance.set_on_cancelled(
      [&out](RequestState* r) { out.order.push_back(-1 - static_cast<int>(r->request.id)); });

  auto make_call = [&](const Call& call) {
    RequestState* r = states[static_cast<size_t>(call.request)].get();
    if (call.kind == Call::Kind::kEnqueue) {
      instance.Enqueue(r);
      return;
    }
    switch (r->phase) {
      case RequestPhase::kPending:  // not enqueued yet: nothing to tear down
      case RequestPhase::kDone:
      case RequestPhase::kCancelled:
      case RequestPhase::kTimedOut:
        return;
      default:
        break;
    }
    if (r->cancel_pending) {
      return;
    }
    r->phase = call.kind == Call::Kind::kTimeout ? RequestPhase::kTimedOut
                                                 : RequestPhase::kCancelled;
    instance.Cancel(r);
  };
  for (const Call& call : script.calls) {
    if (!call.direct) {
      sim.ScheduleAt(call.time, [&make_call, call] { make_call(call); });
    }
  }

  for (double horizon : script.checkpoints) {
    sim.Run(horizon);
    out.counters.push_back(ReadCounters(instance, sim));
    for (const Call& call : script.calls) {
      if (call.direct && call.time == horizon) {
        make_call(call);
      }
    }
  }
  sim.Run();
  out.counters.push_back(ReadCounters(instance, sim));
  out.events = sim.events_processed();
  for (const auto& s : states) {
    RequestOutcome r;
    r.phase = s->phase;
    r.decode_steps_done = s->decode_steps_done;
    r.prefill_tokens_done = s->prefill_tokens_done;
    r.preemptions = s->preemptions;
    r.prefill_start = s->record.prefill_start;
    r.first_token = s->record.first_token;
    r.decode_start = s->record.decode_start;
    r.completion = s->record.completion;
    out.requests.push_back(r);
  }
  return out;
}

// The scenario axes a random script exercises, one at a time.
enum class Variant {
  kPrefix,   // prefix-cache hits shorten prefill compute
  kTenants,  // tenant priorities under tight KV: admission blocks and preempts
  kAbandon,  // client cancels and deadlines tear requests down mid-run
};

// A random script: `n` requests with short outputs (so decode runs finish, get cut and
// restart often), arrivals over about two seconds, a KV pool that holds a handful of
// requests (so admission blocks inside decode runs), and checkpoints at random times.
inline Script RandomScript(uint64_t seed, Mode mode, Variant variant, int n = 40) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  Script s;
  s.options.mode = mode;
  // Tenants get a roomy batch cap and a tight pool, so memory (not the cap) blocks admission
  // and the high class evicts resident decodes.
  s.options.max_batch_size = variant == Variant::kTenants ? pick(16, 48) : pick(3, 16);
  s.options.max_prefill_tokens_per_step = pick(1, 8) * 256;
  s.options.chunk_budget = pick(1, 8) * 64;
  s.options.cpu_overhead_per_step = pick(0, 1) == 0 ? 0.0 : baselines::kVllmStepCpuOverhead;
  s.kv_capacity = (variant == Variant::kTenants ? pick(3, 8) : pick(8, 16)) * 400;
  for (int i = 0; i < n; ++i) {
    workload::Request req;
    req.id = i;
    req.arrival_time = uniform(0.0, 2.0);
    req.input_len = pick(16, 360);
    req.output_len = pick(1, 80);
    if (variant == Variant::kPrefix && pick(0, 1) == 0) {
      req.cached_prefix_len = pick(0, req.input_len - 1);
    }
    if (variant == Variant::kTenants) {
      req.priority = pick(0, 2);
    }
    s.requests.push_back(req);
    s.calls.push_back(Call{req.arrival_time, Call::Kind::kEnqueue, i});
    if (variant == Variant::kAbandon) {
      // Both timers armed, as the vLLM system arms them; the earlier one wins (cancel on a
      // tie), the later finds the request terminal.
      if (pick(0, 2) == 0) {
        s.calls.push_back(
            Call{req.arrival_time + uniform(0.0, 1.0), Call::Kind::kCancel, i});
      }
      s.calls.push_back(Call{req.arrival_time + uniform(0.3, 3.0), Call::Kind::kTimeout, i});
    }
  }
  for (int k = 0; k < 4; ++k) {
    s.checkpoints.push_back(uniform(0.0, 3.0));
  }
  std::sort(s.checkpoints.begin(), s.checkpoints.end());
  return s;
}

}  // namespace distserve::engine::colocated_script

#endif  // DISTSERVE_TESTS_COLOCATED_RUN_SCRIPT_H_
