// Low-overhead run telemetry: phase-timing spans and engine counters.
//
// The executor installs one TrialTelemetry sink per (sweep, sweep2, trial)
// unit into a thread-local pointer for the duration of the unit
// (ScopedTrial); the round driver, trace runner, round kernel and the
// environments then record into whatever sink the calling thread carries:
//
//   ScopedTrial              whole-unit wall clock, sink installation
//   ScopedRound              one gossip round (nests the phases below)
//   ScopedPhase(kSetup)      environment + swarm construction, pre-loop work
//   ScopedPhase(kPlan)       Environment::BuildPlan partner planning
//   ScopedPhase(kApply)      protocol apply walk (exchanges, push deposits
//                            or gathers, at any intra-round thread count)
//   ScopedPhase(kScatter)    reserved: no engine path records it any more
//   ScopedPhase(kRecord)     metric evaluation (round ends, trace samples)
//   Count(counter, n)        cheap engine counters (cache hits, RNG draws,
//                            planned exchanges, deposited bytes, ...)
//
// Cost model: when no sink is installed (telemetry off — the default),
// every hook is a thread-local pointer test and nothing else; no
// allocation, no clock read. When a sink is installed, spans read the
// monotonic clock twice per phase per round (never per slot) and counters
// are plain 64-bit adds, so `telemetry = summary` stays well under the
// documented 2% budget on a 100k-host round. Telemetry never feeds back
// into the simulation: enabling it cannot perturb any recorded metric.
//
// Threading: the sink pointer is thread-local and each unit runs on one
// executor worker, so TrialTelemetry needs no synchronization. Threads the
// engine wakes *inside* a round (the round kernel's intra-round workers)
// carry a null sink and record nothing — the apply phase is timed around
// the whole fork/join by the calling thread.

#ifndef DYNAGG_OBS_TELEMETRY_H_
#define DYNAGG_OBS_TELEMETRY_H_

#include <cstdint>
#include <vector>

namespace dynagg {
namespace obs {

/// The kernel phases a round decomposes into (plus the per-trial setup).
enum class Phase : int {
  kSetup = 0,  // environment + swarm construction, pre-round-loop work
  kPlan,       // Environment::BuildPlan (partner planning)
  kApply,      // protocol apply walk (exchanges, push deposits, gathers)
  kScatter,    // unused by the engine; kept so phase-indexed readers of
               // the summary columns keep their layout
  kRecord,     // metric evaluation (on_round_end, trace samples, finish)
};
constexpr int kNumPhases = 5;

/// Lower-case stable phase name ("setup", "plan", ...), used for summary
/// table columns (<name>_ms) and trace event names.
const char* PhaseName(Phase phase);

/// Engine counters bumped at instrumentation sites. All are exact and
/// deterministic for a fixed spec (they count work, not time), so the
/// executor's per-cell sums are thread-count independent.
enum class Counter : int {
  kPlanCacheHits = 0,     // per-host alive-row plan caches reused
  kPlanCacheRebuilds,     // per-host alive-row plan caches rebuilt
  kAliveBitmapRebuilds,   // environment alive-bitmap rebuilds
  kRngDraws,              // xoshiro outputs consumed by the trial's streams
  kGossipExchanges,       // partner slots planned across all rounds
  kDepositBytes,          // push-mode payload bytes, one payload per slot
  kEarlyStopRounds,       // budgeted rounds skipped by early convergence
  kPoolDispatchNs,        // worker-pool fork/join wall ns (whole dispatch)
  kPoolWaitNs,            // ns the dispatcher idled waiting on pool workers
  kChurnJoins,            // first-time arrivals admitted by churn plans
  kChurnRebirths,         // state-reset ID-reuse rebirths from churn plans
};
constexpr int kNumCounters = 11;

/// Stable counter name ("plan_cache_hits", ...), used for summary columns.
const char* CounterName(Counter counter);

/// Monotonic nanoseconds; one process-wide clock so span timestamps from
/// different executor workers share a timeline in the exported profile.
int64_t NowNs();

/// One closed span, recorded only in profile mode. Phase spans carry the
/// round they ran under (-1 = outside the round loop, e.g. setup). Pool
/// spans nest inside the scatter phase and are deliberately NOT phases:
/// the executor's span_cover_pct sums all phase_ns, so a nested phase
/// would double-count coverage — the pool reports through the
/// pool_dispatch_ns / pool_wait_ns counters instead, plus these trace-only
/// spans (phase 0 = dispatch, 1 = wait) in profile mode.
struct SpanEvent {
  enum Kind : uint8_t { kTrial = 0, kRound = 1, kPhase = 2, kPool = 3 };
  uint8_t kind = kTrial;
  uint8_t phase = 0;   // Phase for kPhase; 0=dispatch/1=wait for kPool
  int32_t round = -1;  // meaningful for kRound / kPhase / kPool
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Everything one unit records. Accumulators are always filled while a
/// sink is installed; the raw span stream is kept only in profile mode.
struct TrialTelemetry {
  // Identity, filled by the executor.
  int unit = 0;
  int worker = 0;
  int trial = 0;

  // Accumulators (summary + profile).
  int64_t phase_ns[kNumPhases] = {};
  int64_t phase_calls[kNumPhases] = {};
  int64_t counters[kNumCounters] = {};
  int rounds = 0;
  int64_t trial_start_ns = 0;
  int64_t trial_dur_ns = 0;

  // Profile mode: the raw closed-span stream for the trace export.
  bool profile = false;
  std::vector<SpanEvent> events;

  // Scope bookkeeping (managed by ScopedRound).
  int32_t current_round = -1;
};

namespace internal {
// The calling thread's sink; null = telemetry off. Defined in telemetry.cc,
// exposed here so the hooks below inline to a single TLS pointer test.
extern thread_local TrialTelemetry* tls_sink;
}  // namespace internal

/// The calling thread's telemetry sink, or null when telemetry is off.
inline TrialTelemetry* Current() { return internal::tls_sink; }

/// Adds `n` to `counter` on the calling thread's sink; no-op when off.
inline void Count(Counter counter, int64_t n = 1) {
  if (TrialTelemetry* t = internal::tls_sink) {
    t->counters[static_cast<int>(counter)] += n;
  }
}

/// Installs `sink` as the calling thread's telemetry target and times the
/// whole unit. Pass null to run with telemetry off (all hooks no-op).
class ScopedTrial {
 public:
  explicit ScopedTrial(TrialTelemetry* sink) : sink_(sink) {
    internal::tls_sink = sink;
    if (sink_ != nullptr) sink_->trial_start_ns = NowNs();
  }
  ~ScopedTrial() {
    if (sink_ != nullptr) {
      sink_->trial_dur_ns = NowNs() - sink_->trial_start_ns;
      if (sink_->profile) {
        sink_->events.push_back({SpanEvent::kTrial, 0, -1,
                                 sink_->trial_start_ns, sink_->trial_dur_ns});
      }
    }
    internal::tls_sink = nullptr;
  }
  ScopedTrial(const ScopedTrial&) = delete;
  ScopedTrial& operator=(const ScopedTrial&) = delete;

 private:
  TrialTelemetry* sink_;
};

/// Times one gossip round and tags nested phase spans with its index.
class ScopedRound {
 public:
  explicit ScopedRound(int round) : sink_(internal::tls_sink) {
    if (sink_ == nullptr) return;
    start_ = NowNs();
    prev_round_ = sink_->current_round;
    sink_->current_round = round;
    round_ = round;
    ++sink_->rounds;
  }
  ~ScopedRound() {
    if (sink_ == nullptr) return;
    sink_->current_round = prev_round_;
    if (sink_->profile) {
      sink_->events.push_back(
          {SpanEvent::kRound, 0, round_, start_, NowNs() - start_});
    }
  }
  ScopedRound(const ScopedRound&) = delete;
  ScopedRound& operator=(const ScopedRound&) = delete;

 private:
  TrialTelemetry* sink_;
  int64_t start_ = 0;
  int32_t round_ = -1;
  int32_t prev_round_ = -1;
};

/// Times one kernel phase; accumulates into phase_ns/phase_calls and, in
/// profile mode, appends a span event tagged with the current round.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) : sink_(internal::tls_sink) {
    if (sink_ == nullptr) return;
    phase_ = phase;
    start_ = NowNs();
  }
  ~ScopedPhase() {
    if (sink_ == nullptr) return;
    const int64_t dur = NowNs() - start_;
    const int i = static_cast<int>(phase_);
    sink_->phase_ns[i] += dur;
    ++sink_->phase_calls[i];
    if (sink_->profile) {
      sink_->events.push_back({SpanEvent::kPhase,
                               static_cast<uint8_t>(phase_),
                               sink_->current_round, start_, dur});
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  TrialTelemetry* sink_;
  Phase phase_ = Phase::kSetup;
  int64_t start_ = 0;
};

}  // namespace obs
}  // namespace dynagg

#endif  // DYNAGG_OBS_TELEMETRY_H_
