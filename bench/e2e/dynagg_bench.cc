// dynagg_bench: the end-to-end benchmark harness. Runs one workload spec
// through the library's public calls and prints one JSON object on stdout.
// bench/e2e/run.py starts one fresh process per measurement, so every
// number below is what a user of `dynagg_run` pays in a fresh process.
//
//   dynagg_bench info
//       Compiler, build type and the CPUs the process may run on.
//   dynagg_bench setup SPEC [--seed=N]
//       Cold set-up time: read + ParseScenarioFile, ValidateExperiment,
//       MakeEnvironment, ProtocolDef::make_swarm and, when the spec declares
//       them, the failure or churn plan build.
//   dynagg_bench run SPEC [--seed=N] --out=CSV
//       Wall time of RunExperiment(spec, threads = 1) plus RenderTables,
//       and the process's peak RSS. The rendered tables go to CSV.
//   dynagg_bench trace SPEC [--seed=N] --out=CSV --trace-out=JSON
//       The traced pass: RunExperiment with telemetry = summary, then the
//       harness's own spans around the public calls the engine does not
//       split (environment and swarm builds, plan builds, a churn-plan
//       replay, metric evaluation, and an async-step replay for
//       driver = async). Spans are kept in memory and written once, at the
//       end, as a Chrome trace-event JSON (open it in ui.perfetto.dev).
//
// Exit status: 0 on success, 1 on any error (reported on stderr).

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/inflight_queue.h"
#include "net/message.h"
#include "net/network_model.h"
#include "obs/telemetry.h"
#include "scenario/async_driver.h"
#include "scenario/config.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/trial.h"
#include "sim/churn.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/worker_pool.h"

namespace dynagg {
namespace {

using scenario::ScenarioSpec;

// Metric evaluations timed per traced pass; the median is reported.
constexpr int kMetricEvalRepeats = 5;

// ------------------------------------------------------------- output ---

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// A flat JSON object built in insertion order; numbers keep all 17
/// significant digits so timings are reported as measured.
class JsonObject {
 public:
  void Add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Append(key, buf);
  }
  void Add(const std::string& key, const std::string& value) {
    Append(key, "\"" + JsonEscape(value) + "\"");
  }
  void AddRaw(const std::string& key, const std::string& json) {
    Append(key, json);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Append(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + JsonEscape(key) + "\": " + json;
  }
  std::string body_;
};

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open '" + path + "'");
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    return Status::Corruption("short write to '" + path + "'");
  }
  return Status::OK();
}

// -------------------------------------------------------------- spans ---

/// In-memory span log: name, start, end and the span open when it began.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  int Begin(const std::string& name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, obs::NowNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  int64_t End(int id) {
    spans_[id].end_ns = obs::NowNs();
    open_.pop_back();
    return spans_[id].end_ns - spans_[id].start_ns;
  }
  /// Records an already-closed span (the engine's trial span).
  void AddClosed(const std::string& name, int64_t start_ns, int64_t dur_ns,
                 int parent) {
    spans_.push_back({name, start_ns, start_ns + dur_ns, parent});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one complete ("X") event per span on one
  /// track, nested by time containment; the parent name rides in args.
  std::string RenderChromeTrace(const std::string& process) const {
    int64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::string out = "{\"traceEvents\": [\n";
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": \"" + JsonEscape(process) + "\"}}";
    for (const Span& s : spans_) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f",
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out += ",\n{\"name\": \"" + JsonEscape(s.name) + "\", " + buf +
             ", \"args\": {\"parent\": \"" +
             (s.parent < 0 ? "" : JsonEscape(spans_[s.parent].name)) + "\"}}";
    }
    out += "\n]}\n";
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one scope into `tracer` (null = untraced) and adds the duration
/// to `*total_ns` when given.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             int64_t* total_ns = nullptr)
      : tracer_(tracer), total_ns_(total_ns) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    const int64_t dur = tracer_->End(id_);
    if (total_ns_ != nullptr) *total_ns_ += dur;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t* total_ns_;
  int id_ = -1;
};

// ------------------------------------------------------------ set-up ---

struct Args {
  std::string mode;
  std::string spec_path;
  std::optional<uint64_t> seed;
  std::string out;
  std::string trace_out;
};

/// Reads and parses a one-experiment workload spec, applying --seed.
Result<ScenarioSpec> LoadSpec(const Args& args) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string text, ReadFile(args.spec_path));
  DYNAGG_ASSIGN_OR_RETURN(std::vector<ScenarioSpec> specs,
                          scenario::ParseScenarioFile(text, "workload"));
  if (specs.size() != 1) {
    return Status::InvalidArgument(
        "'" + args.spec_path + "' must hold exactly one experiment");
  }
  if (specs[0].trials != 1 || !specs[0].sweep_key.empty()) {
    return Status::InvalidArgument(
        "'" + args.spec_path + "': a workload is one unit (no sweep, 1 trial)");
  }
  if (args.seed) specs[0].seed = *args.seed;
  return std::move(specs[0]);
}

/// Everything the rounds and async drivers build before their time loop.
struct Trial {
  scenario::TrialContext ctx;
  scenario::EnvHandle env;
  scenario::SwarmHandle swarm;
  scenario::ChurnConfig churn_config;
  std::optional<ChurnPlan> churn;
};

/// Builds the environment, the swarm and any failure or churn plan the way
/// the drivers do, timing each step into `tracer` (null = untimed).
Status BuildTrial(const ScenarioSpec& spec, const scenario::ProtocolDef& def,
                  Tracer* tracer, Trial* t) {
  t->ctx.spec = &spec;
  t->ctx.trial = 0;
  t->ctx.trial_seed = scenario::TrialSeed(spec.seed, 0);
  {
    ScopedSpan span(tracer, "env.build");
    DYNAGG_ASSIGN_OR_RETURN(t->env, scenario::MakeEnvironment(t->ctx));
  }
  {
    ScopedSpan span(tracer, "agg.build");
    DYNAGG_ASSIGN_OR_RETURN(t->swarm, def.make_swarm(t->ctx, t->env));
  }
  const int n = t->env.env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const scenario::FailureConfig fail,
                          scenario::ParseFailureConfig(spec));
  if (fail.kind != scenario::FailureConfig::Kind::kNone) {
    ScopedSpan span(tracer, "sim.failure_plan");
    DYNAGG_ASSIGN_OR_RETURN(const uint64_t stream,
                            scenario::FailureStream(spec, fail));
    Rng rng(DeriveSeed(t->ctx.trial_seed, stream));
    DYNAGG_RETURN_IF_ERROR(scenario::BuildFailurePlan(
                               fail, n, spec.rounds, t->swarm.failure_values,
                               rng)
                               .status());
  }
  DYNAGG_ASSIGN_OR_RETURN(t->churn_config, scenario::ParseChurnConfig(spec));
  if (t->churn_config.enabled) {
    ScopedSpan span(tracer, "sim.churn_plan");
    DYNAGG_ASSIGN_OR_RETURN(const uint64_t stream,
                            scenario::ChurnStream(spec, t->ctx, n));
    Rng rng(DeriveSeed(t->ctx.trial_seed, stream));
    DYNAGG_ASSIGN_OR_RETURN(
        t->churn, scenario::BuildChurnPlan(t->churn_config, n, spec.rounds,
                                           rng));
  }
  return Status::OK();
}

int64_t SpanTotal(const Tracer& tracer, const std::string& name) {
  int64_t total = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return total;
}

/// Rounds (or async samples) whose metric evaluation some requested record
/// reads: the rms series window, the rms_tail_mean window and the last
/// round for final_rms. Any other per-round record reads every round.
int UsefulRecordRounds(const ScenarioSpec& spec) {
  const auto param = [&](const std::string& key, int def) {
    const Result<int64_t> v = spec.ParamInt(key, def);
    return v.ok() ? static_cast<int>(*v) : def;
  };
  const int from = param("record.from", 0);
  const int every = std::max(1, param("record.every", 1));
  int useful = 0;
  for (int r = 0; r < spec.rounds; ++r) {
    bool read = false;
    for (const scenario::MetricSpec& m : spec.metrics) {
      if (m.name == "rms") {
        read |= r >= from && (r - from) % every == 0;
      } else if (m.name == "rms_tail_mean") {
        read |= r >= from;
      } else if (m.name == "final_rms") {
        read |= r == spec.rounds - 1;
      } else if (m.name == "rms_at" || m.name == "rounds_below" ||
                 m.name == "recovery_rounds" ||
                 m.name == "rounds_to_converge") {
        read = true;
      }
    }
    if (read) ++useful;
  }
  return useful;
}

// ------------------------------------------------------------- modes ---

int Fail(const Status& st) {
  std::fprintf(stderr, "dynagg_bench: %s\n", st.ToString().c_str());
  return 1;
}

int RunInfo() {
  JsonObject out;
  out.Add("compiler", std::string("g++ ") + __VERSION__);
  out.Add("build_type", std::string(DYNAGG_BENCH_BUILD_TYPE));
  out.Add("hardware_concurrency",
          static_cast<double>(WorkerPool::HardwareConcurrency()));
  out.Add("affinity_cpus", static_cast<double>(WorkerPool::AffinityCpus()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int RunSetup(const Args& args) {
  const int64_t start = obs::NowNs();
  Result<ScenarioSpec> spec = LoadSpec(args);
  if (!spec.ok()) return Fail(spec.status());
  if (Status st = scenario::ValidateExperiment(*spec); !st.ok()) {
    return Fail(st);
  }
  Result<scenario::ProtocolDef> def =
      scenario::ProtocolRegistry().Find(spec->protocol);
  if (!def.ok()) return Fail(def.status());
  Trial trial;
  if (Status st = BuildTrial(*spec, *def, nullptr, &trial); !st.ok()) {
    return Fail(st);
  }
  const int64_t end = obs::NowNs();
  JsonObject out;
  out.Add("setup_s", static_cast<double>(end - start) / 1e9);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int RunTimed(const Args& args) {
  Result<ScenarioSpec> spec = LoadSpec(args);
  if (!spec.ok()) return Fail(spec.status());
  if (Status st = scenario::ValidateExperiment(*spec); !st.ok()) {
    return Fail(st);
  }
  const int64_t start = obs::NowNs();
  Result<std::vector<scenario::ResultTable>> tables =
      scenario::RunExperiment(*spec, /*threads=*/1);
  if (!tables.ok()) return Fail(tables.status());
  Result<std::string> rendered =
      scenario::RenderTables(*tables, spec->name, "csv");
  if (!rendered.ok()) return Fail(rendered.status());
  const int64_t end = obs::NowNs();
  const double peak_rss_mb = PeakRssMb();
  if (Status st = WriteFile(args.out, *rendered); !st.ok()) return Fail(st);
  JsonObject out;
  out.Add("wall_s", static_cast<double>(end - start) / 1e9);
  out.Add("peak_rss_mb", peak_rss_mb);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// What one async-step replay measured.
struct AsyncReplay {
  int64_t tick_ns = 0;     // agg.async_tick: plan one gossip tick
  int64_t decide_ns = 0;   // net.decide (isolated pass only)
  int64_t queue_ns = 0;    // net.queue_*: in-flight Push + Pop (isolated)
  int64_t deliver_ns = 0;  // agg.async_deliver (isolated pass only)
  int64_t send_ns = 0;     // async.send: decide + Push per message
  int64_t drain_ns = 0;    // async.drain: Pop + deliver per message
  int64_t sent = 0;
  int64_t dropped = 0;
  int64_t delivered = 0;
  size_t inflight_peak = 0;
  double final_rms = 0.0;

  int64_t total_ns() const {
    return tick_ns + decide_ns + queue_ns + deliver_ns + send_ns + drain_ns;
  }
};

/// Replays the async driver's step loop on the spec-built environment and
/// swarm with the driver's seeds, so its delivery rate and final RMS equal
/// the engine's. Interleaved (`isolate` false), it keeps the driver's and
/// BM_AsyncDriverStep's structure — deliver inside the queue drain, decide
/// inside the send loop — and its time is comparable with wall_s. Isolated,
/// each stage runs as its own pass over the tick's messages so the four
/// stage costs can be timed apart; the two totals differ by what
/// interleaving the stages costs.
Result<AsyncReplay> ReplayAsync(const ScenarioSpec& spec, Trial& t,
                                Tracer& tracer, bool isolate) {
  DYNAGG_ASSIGN_OR_RETURN(const net::NetworkParams params,
                          scenario::ParseNetworkParams(spec));
  Environment& env = *t.env.env;
  const int n = env.num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          scenario::RoundStream(spec, t.ctx, n));
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t message_stream,
                          scenario::MessageStream(spec, t.ctx, n));
  Rng rng(DeriveSeed(t.ctx.trial_seed, round_stream));
  net::NetworkModel model(params,
                          DeriveSeed(t.ctx.trial_seed, message_stream));
  Population pop(n);
  const SimTime period =
      FromSeconds(spec.gossip_period > 0 ? spec.gossip_period : 30.0);

  AsyncReplay r;
  std::vector<net::Message> wave;
  std::vector<net::Message> due;
  std::vector<net::NetworkModel::Delivery> decisions;
  net::InFlightQueue inflight;
  inflight.Reserve(static_cast<size_t>(n));
  uint64_t message_index = 0;

  const auto drain = [&](SimTime now) {
    if (!isolate) {
      ScopedSpan span(&tracer, "async.drain", &r.drain_ns);
      while (inflight.HasDueBy(now)) {
        t.swarm.async_deliver(inflight.Top());
        ++r.delivered;
        inflight.Pop();
      }
      return;
    }
    {
      ScopedSpan span(&tracer, "net.queue_pop", &r.queue_ns);
      while (inflight.HasDueBy(now)) {
        due.push_back(inflight.Top());
        inflight.Pop();
      }
    }
    {
      ScopedSpan span(&tracer, "agg.async_deliver", &r.deliver_ns);
      for (const net::Message& m : due) t.swarm.async_deliver(m);
    }
    r.delivered += static_cast<int64_t>(due.size());
    due.clear();
  };
  const auto send = [&](SimTime now) {
    if (!isolate) {
      ScopedSpan span(&tracer, "async.send", &r.send_ns);
      for (const net::Message& m : wave) {
        const net::NetworkModel::Delivery d = model.Decide(message_index++);
        if (d.dropped) {
          ++r.dropped;
          continue;
        }
        inflight.Push(now + d.delay, m);
      }
      r.inflight_peak = std::max(r.inflight_peak, inflight.size());
      return;
    }
    {
      ScopedSpan span(&tracer, "net.decide", &r.decide_ns);
      decisions.resize(wave.size());
      for (auto& d : decisions) d = model.Decide(message_index++);
    }
    ScopedSpan span(&tracer, "net.queue_push", &r.queue_ns);
    for (size_t i = 0; i < wave.size(); ++i) {
      if (decisions[i].dropped) {
        ++r.dropped;
        continue;
      }
      inflight.Push(now + decisions[i].delay, wave[i]);
    }
    r.inflight_peak = std::max(r.inflight_peak, inflight.size());
  };

  ScopedSpan replay(&tracer,
                    isolate ? "async.replay_isolated" : "async.replay");
  for (int tick = 0; tick < spec.rounds; ++tick) {
    const SimTime now = static_cast<SimTime>(tick + 1) * period;
    drain(now);
    if (t.env.advance_period > 0) {
      env.AdvanceTo(static_cast<SimTime>(tick + 1) * t.env.advance_period);
    }
    {
      ScopedSpan span(&tracer, "agg.async_tick", &r.tick_ns);
      wave.clear();
      t.swarm.async_tick(env, pop, rng, &wave);
    }
    r.sent += static_cast<int64_t>(wave.size());
    send(now);
    drain(now);  // the sampler's same-instant drain
  }
  drain(INT64_MAX);  // settle the network before final_rms
  r.final_rms =
      RmsDeviationOverAlive(pop, t.swarm.truth(pop), t.swarm.estimate);
  return r;
}

Status RunTraced(const Args& args, std::string* json) {
  Tracer tracer;
  const int root = tracer.Begin("trace");
  std::optional<ScenarioSpec> spec;
  {
    ScopedSpan span(&tracer, "scenario.parse");
    DYNAGG_ASSIGN_OR_RETURN(spec, LoadSpec(args));
  }
  {
    ScopedSpan span(&tracer, "scenario.validate");
    DYNAGG_RETURN_IF_ERROR(scenario::ValidateExperiment(*spec));
  }
  DYNAGG_ASSIGN_OR_RETURN(const scenario::ProtocolDef def,
                          scenario::ProtocolRegistry().Find(spec->protocol));

  // The traced run first, in a process as cold as the untimed `run` mode,
  // so its wall time compares with wall_s.
  scenario::RunOptions options;
  options.threads = 1;
  options.telemetry = "summary";
  scenario::ExperimentTelemetry telemetry;
  std::vector<scenario::ResultTable> tables;
  const int64_t run_start = obs::NowNs();
  int run_span = -1;
  {
    ScopedSpan span(&tracer, "scenario.run");
    run_span = span.id();
    DYNAGG_ASSIGN_OR_RETURN(
        tables, scenario::RunExperiment(*spec, options, &telemetry));
  }
  std::string rendered;
  {
    ScopedSpan span(&tracer, "scenario.render");
    DYNAGG_ASSIGN_OR_RETURN(rendered,
                            scenario::RenderTables(tables, spec->name, "csv"));
  }
  const int64_t run_end = obs::NowNs();
  DYNAGG_RETURN_IF_ERROR(WriteFile(args.out, rendered));
  if (telemetry.units.size() != 1) {
    return Status::FailedPrecondition("expected one telemetry unit");
  }
  const obs::TrialTelemetry& unit = telemetry.units[0];
  tracer.AddClosed("engine.trial", unit.trial_start_ns, unit.trial_dur_ns,
                   run_span);

  // The layers the engine does not split, timed around public calls.
  Trial trial;
  DYNAGG_RETURN_IF_ERROR(BuildTrial(*spec, def, &tracer, &trial));
  const int n = trial.env.env->num_hosts();
  Population pop(n);
  if (trial.churn) {
    const int initial =
        trial.churn_config.initial >= 0 ? trial.churn_config.initial : n;
    pop = initial < n ? Population(n, initial) : Population(n);
    ScopedSpan span(&tracer, "sim.churn_apply");
    for (int r = 0; r < spec->rounds; ++r) {
      trial.churn->Apply(r, &pop, trial.swarm.on_join);
    }
  }
  std::vector<int64_t> eval_ns;
  double eval_rms = 0.0;
  for (int i = 0; i < kMetricEvalRepeats; ++i) {
    int64_t ns = 0;
    {
      ScopedSpan span(&tracer, "sim.metric_eval", &ns);
      eval_rms = RmsDeviationOverAlive(pop, trial.swarm.truth(pop),
                                       trial.swarm.estimate);
    }
    eval_ns.push_back(ns);
  }
  std::sort(eval_ns.begin(), eval_ns.end());

  JsonObject metrics;
  JsonObject checks;
  if (spec->driver == "async") {
    DYNAGG_ASSIGN_OR_RETURN(const AsyncReplay faithful,
                            ReplayAsync(*spec, trial, tracer, false));
    Trial fresh;
    DYNAGG_RETURN_IF_ERROR(BuildTrial(*spec, def, nullptr, &fresh));
    DYNAGG_ASSIGN_OR_RETURN(const AsyncReplay isolated,
                            ReplayAsync(*spec, fresh, tracer, true));
    const double msgs =
        static_cast<double>(std::max<int64_t>(1, isolated.sent));
    metrics.Add("agg.async_tick_ns_per_msg",
                static_cast<double>(isolated.tick_ns) / msgs);
    metrics.Add("net.decide_ns_per_msg",
                static_cast<double>(isolated.decide_ns) / msgs);
    metrics.Add("net.queue_ns_per_msg",
                static_cast<double>(isolated.queue_ns) / msgs);
    metrics.Add("agg.async_deliver_ns_per_msg",
                static_cast<double>(isolated.deliver_ns) / msgs);
    metrics.Add("net.messages_sent", static_cast<double>(faithful.sent));
    metrics.Add("net.messages_dropped", static_cast<double>(faithful.dropped));
    metrics.Add("net.inflight_peak",
                static_cast<double>(faithful.inflight_peak));
    checks.Add("async_replay_s",
               static_cast<double>(faithful.total_ns()) / 1e9);
    checks.Add("async_isolated_s",
               static_cast<double>(isolated.total_ns()) / 1e9);
    checks.Add("async_replay_delivery_rate",
               static_cast<double>(faithful.delivered) /
                   static_cast<double>(std::max<int64_t>(1, faithful.sent)));
    checks.Add("async_replay_final_rms", faithful.final_rms);
  }
  tracer.End(root);

  // Engine phases and counters from the traced run.
  const auto phase_ns = [&](obs::Phase p) {
    return static_cast<double>(unit.phase_ns[static_cast<int>(p)]);
  };
  const auto counter = [&](obs::Counter c) {
    return static_cast<double>(unit.counters[static_cast<int>(c)]);
  };
  const double host_rounds =
      static_cast<double>(n) * static_cast<double>(spec->rounds);
  double spanned_ns = 0.0;
  for (int p = 0; p < obs::kNumPhases; ++p) {
    spanned_ns += static_cast<double>(unit.phase_ns[p]);
  }
  const double trial_ns = static_cast<double>(unit.trial_dur_ns);
  const int64_t in_loop_records =
      unit.phase_calls[static_cast<int>(obs::Phase::kRecord)] - 1;
  const double state_bytes = trial.swarm.state_bytes;
  const double moved_ns = phase_ns(obs::Phase::kApply) +
                          phase_ns(obs::Phase::kScatter);

  metrics.Add("scenario.setup_ms", phase_ns(obs::Phase::kSetup) / 1e6);
  metrics.Add("scenario.unspanned_pct",
              100.0 * (trial_ns - spanned_ns) / trial_ns);
  metrics.Add("scenario.render_ms",
              static_cast<double>(SpanTotal(tracer, "scenario.render")) / 1e6);
  metrics.Add("env.build_ms",
              static_cast<double>(SpanTotal(tracer, "env.build")) / 1e6);
  metrics.Add("env.plan_ns_per_host_round",
              phase_ns(obs::Phase::kPlan) / host_rounds);
  metrics.Add("env.plan_cache_rebuilds",
              counter(obs::Counter::kPlanCacheRebuilds));
  metrics.Add("env.alive_bitmap_rebuilds",
              counter(obs::Counter::kAliveBitmapRebuilds));
  metrics.Add("env.gossip_exchanges", counter(obs::Counter::kGossipExchanges));
  metrics.Add("agg.build_ms",
              static_cast<double>(SpanTotal(tracer, "agg.build")) / 1e6);
  metrics.Add("agg.apply_ns_per_host_round",
              phase_ns(obs::Phase::kApply) / host_rounds);
  metrics.Add("agg.state_bytes_per_host", state_bytes);
  metrics.Add("agg.computed_gb_per_s",
              moved_ns > 0 ? 2.0 * state_bytes * host_rounds / moved_ns : 0.0);
  metrics.Add("sim.scatter_ns_per_host_round",
              phase_ns(obs::Phase::kScatter) / host_rounds);
  metrics.Add("sim.pool_dispatch_ms",
              counter(obs::Counter::kPoolDispatchNs) / 1e6);
  metrics.Add("sim.pool_wait_ms", counter(obs::Counter::kPoolWaitNs) / 1e6);
  metrics.Add("sim.deposit_bytes", counter(obs::Counter::kDepositBytes));
  metrics.Add("sim.record_ns_per_host_round",
              phase_ns(obs::Phase::kRecord) / host_rounds);
  metrics.Add("sim.record_useful_frac",
              in_loop_records > 0
                  ? static_cast<double>(UsefulRecordRounds(*spec)) /
                        static_cast<double>(in_loop_records)
                  : 1.0);
  metrics.Add("sim.metric_eval_ns_per_host",
              static_cast<double>(eval_ns[eval_ns.size() / 2]) /
                  std::max(1, pop.num_alive()));
  metrics.Add("sim.churn_plan_ms",
              static_cast<double>(SpanTotal(tracer, "sim.churn_plan")) / 1e6);
  metrics.Add("sim.churn_apply_ms",
              static_cast<double>(SpanTotal(tracer, "sim.churn_apply")) / 1e6);
  metrics.Add("sim.churn_joins", counter(obs::Counter::kChurnJoins));
  metrics.Add("sim.churn_rebirths", counter(obs::Counter::kChurnRebirths));
  metrics.Add("common.rng_draws", counter(obs::Counter::kRngDraws));

  checks.Add("trial_s", trial_ns / 1e9);
  checks.Add("unspanned_s", (trial_ns - spanned_ns) / 1e9);
  checks.Add("metric_eval_rms", eval_rms);

  JsonObject out;
  out.Add("traced_wall_s", static_cast<double>(run_end - run_start) / 1e9);
  out.AddRaw("metrics", metrics.str());
  out.AddRaw("checks", checks.str());
  *json = out.str();
  return WriteFile(args.trace_out, tracer.RenderChromeTrace(spec->name));
}

int Usage() {
  std::fprintf(stderr,
               "usage: dynagg_bench info\n"
               "       dynagg_bench setup SPEC [--seed=N]\n"
               "       dynagg_bench run SPEC [--seed=N] --out=CSV\n"
               "       dynagg_bench trace SPEC [--seed=N] --out=CSV "
               "--trace-out=JSON\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.mode = argv[1];
  if (args.mode == "info") return argc == 2 ? RunInfo() : Usage();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      const Result<int64_t> v = scenario::ParseInt64(arg.substr(7));
      if (!v.ok() || *v < 0) return Usage();
      args.seed = static_cast<uint64_t>(*v);
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out = arg.substr(6);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      args.trace_out = arg.substr(12);
    } else if (arg.rfind("--", 0) == 0 || !args.spec_path.empty()) {
      return Usage();
    } else {
      args.spec_path = arg;
    }
  }
  if (args.spec_path.empty()) return Usage();
  if (args.mode == "setup") return RunSetup(args);
  if (args.mode == "run") {
    return args.out.empty() ? Usage() : RunTimed(args);
  }
  if (args.mode == "trace") {
    if (args.out.empty() || args.trace_out.empty()) return Usage();
    std::string json;
    if (Status st = RunTraced(args, &json); !st.ok()) return Fail(st);
    std::printf("%s\n", json.c_str());
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace dynagg

int main(int argc, char** argv) { return dynagg::Main(argc, argv); }
