// Builtin environment catalog: uniform, spatial, random-graph, haggle,
// crawdad.
//
// Each environment has one parse, Parse*Spec, that reads its env.* keys
// with their ranges and returns the typed parameters plus the number of
// hosts it will build. EnvironmentDef::validate wraps the parse (so
// --dry-run applies it to every cell of the sweep grid) and the factory
// consumes its result. Stochastic environments derive their seeds from the
// trial seed so trials stay independent and the parallel executor
// deterministic; the crawdad environment replays an external contact table
// instead (env.trace_file), so every trial observes the same real-world
// trace.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "env/crawdad.h"
#include "env/haggle_gen.h"
#include "env/random_graph_env.h"
#include "env/spatial_env.h"
#include "env/trace_env.h"
#include "env/uniform_env.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {
namespace {

/// The largest env.hours and env.group_window_minutes whose conversion to
/// 64-bit microseconds (FromHours / FromMinutes) cannot overflow.
constexpr double kMaxHours = 2.5e9;
constexpr double kMaxMinutes = 1.5e11;

/// Reads env.gossip_seconds, the rounds driver's trace pacing: a tick of
/// simulated time. The trace driver ticks on the top-level gossip_period,
/// so an explicit value there would be silently dead.
Result<double> ReadGossipSeconds(ParamReader& r, const ScenarioSpec& spec) {
  DYNAGG_ASSIGN_OR_RETURN(
      const double seconds,
      r.Double("env.gossip_seconds", 30.0, Open(0.0), kFiniteMax));
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("env.gossip_seconds", seconds));
  if (spec.driver == "trace" && spec.HasParam("env.gossip_seconds")) {
    return Status::InvalidArgument(
        "env.gossip_seconds paces the rounds driver; under driver = trace "
        "set the top-level gossip_period instead");
  }
  return seconds;
}

struct UniformSpec {
  int hosts = 0;
};

Result<UniformSpec> ParseUniformSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(ParamReader(spec, "env.").Finish());
  if (spec.hosts <= 0) {
    return Status::InvalidArgument(
        "uniform environment requires hosts > 0");
  }
  return UniformSpec{spec.hosts};
}

Result<EnvHandle> MakeUniform(const TrialContext&, const UniformSpec& p) {
  EnvHandle handle;
  handle.env = std::make_unique<UniformEnvironment>(p.hosts);
  return handle;
}

struct SpatialSpec {
  int width = 0;
  int height = 0;
  int max_distance = 0;
  int hosts = 0;
};

Result<SpatialSpec> ParseSpatialSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "env.");
  SpatialSpec p;
  DYNAGG_ASSIGN_OR_RETURN(p.width, r.Int<int>("env.width", 1, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(p.height, r.Int<int>("env.height", 1, 1, kIntMax));
  // 0 = width + height.
  DYNAGG_ASSIGN_OR_RETURN(p.max_distance,
                          r.Int<int>("env.max_distance", 0, 0, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (!spec.HasParam("env.width") || !spec.HasParam("env.height")) {
    return Status::InvalidArgument(
        "spatial environment requires env.width > 0 and env.height > 0");
  }
  // One host per cell, and host ids are ints.
  const int64_t cells = int64_t{p.width} * p.height;
  if (cells > kIntMax) {
    return Status::InvalidArgument(
        "spatial grid env.width x env.height = " + std::to_string(cells) +
        " hosts is above the int maximum " + std::to_string(kIntMax));
  }
  p.hosts = static_cast<int>(cells);
  return p;
}

Result<EnvHandle> MakeSpatial(const TrialContext&, const SpatialSpec& p) {
  EnvHandle handle;
  handle.env = std::make_unique<SpatialGridEnvironment>(p.width, p.height,
                                                        p.max_distance);
  return handle;
}

struct RandomGraphSpec {
  int degree = 8;
  uint64_t seed_stream = 0x9a17;
  int hosts = 0;
};

Result<RandomGraphSpec> ParseRandomGraphSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "env.");
  RandomGraphSpec p;
  DYNAGG_ASSIGN_OR_RETURN(p.degree,
                          r.Int<int>("env.degree", p.degree, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      p.seed_stream,
      r.Int<uint64_t>("env.seed_stream", p.seed_stream, 0, kInt64Max));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (spec.hosts <= 0) {
    return Status::InvalidArgument(
        "random-graph environment requires hosts > 0");
  }
  // The configuration model pairs `degree` distinct stubs per vertex; at
  // degree >= hosts it cannot even allocate them.
  if (p.degree >= spec.hosts) {
    return Status::InvalidArgument(
        "env.degree = " + std::to_string(p.degree) +
        " must be below hosts = " + std::to_string(spec.hosts) +
        " (each host needs that many distinct neighbors)");
  }
  p.hosts = spec.hosts;
  return p;
}

Result<EnvHandle> MakeRandomGraph(const TrialContext& ctx,
                                  const RandomGraphSpec& p) {
  EnvHandle handle;
  handle.env = std::make_unique<RandomGraphEnvironment>(
      p.hosts, p.degree, DeriveSeed(ctx.trial_seed, p.seed_stream));
  return handle;
}

struct HaggleSpec {
  /// The dataset preset with env.hours applied; its seed is replaced by
  /// the factory unless the trace seed is pinned.
  HaggleGenParams params;
  /// The trace seed: derived from the trial seed through seed_stream by
  /// default (independent trials), or pinned via env.trace_seed — `preset`
  /// keeps the dataset preset's fixed seed (every trial and sweep unit
  /// replays the SAME trace, the legacy fig11 convention), an integer pins
  /// it explicitly.
  bool derive_seed = true;
  uint64_t seed_stream = 0x7a5e;
  double gossip_seconds = 30.0;
  double group_window_minutes = 10.0;
  int hosts = 0;
};

Result<HaggleSpec> ParseHaggleSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "env.");
  HaggleSpec p;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t dataset,
                          r.Int("env.dataset", 1, 1, 3));
  p.params = dataset == 1   ? HaggleDataset1()
             : dataset == 2 ? HaggleDataset2()
                            : HaggleDataset3();
  // 0 keeps the preset's duration.
  DYNAGG_ASSIGN_OR_RETURN(const double hours,
                          r.Double("env.hours", 0.0, 0.0, kMaxHours));
  if (hours > 0) p.params.duration_hours = hours;
  DYNAGG_ASSIGN_OR_RETURN(p.gossip_seconds, ReadGossipSeconds(r, spec));
  DYNAGG_ASSIGN_OR_RETURN(
      p.group_window_minutes,
      r.Double("env.group_window_minutes", p.group_window_minutes, 0.0,
               kMaxMinutes));
  DYNAGG_ASSIGN_OR_RETURN(
      p.seed_stream,
      r.Int<uint64_t>("env.seed_stream", p.seed_stream, 0, kInt64Max));
  DYNAGG_ASSIGN_OR_RETURN(const std::string trace_seed,
                          r.String("env.trace_seed", ""));
  if (!trace_seed.empty() && trace_seed != "preset") {
    DYNAGG_ASSIGN_OR_RETURN(
        p.params.seed, r.Int<uint64_t>("env.trace_seed", 0, 0, kInt64Max));
  }
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  p.derive_seed = trace_seed.empty();
  p.hosts = p.params.num_devices;
  return p;
}

Result<EnvHandle> MakeHaggle(const TrialContext& ctx, const HaggleSpec& p) {
  HaggleGenParams params = p.params;
  if (p.derive_seed) params.seed = DeriveSeed(ctx.trial_seed, p.seed_stream);
  EnvHandle handle;
  handle.trace =
      std::make_shared<const ContactTrace>(GenerateHaggleTrace(params));
  handle.env = std::make_unique<TraceEnvironment>(
      *handle.trace, FromMinutes(p.group_window_minutes));
  handle.advance_period = FromSeconds(p.gossip_seconds);
  return handle;
}

/// Reads and parses a CRAWDAD contact table, memoizing the immutable
/// result per (path, options): the trace does not depend on the trial
/// seed, so an experiment's trials and sweep units — which instantiate the
/// environment once each, possibly from several executor threads — share
/// one parse instead of re-reading a potentially multi-megabyte table per
/// trial.
Result<std::shared_ptr<const ContactTrace>> LoadCrawdadTrace(
    const std::string& trace_file, const CrawdadOptions& options) {
  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const ContactTrace>>& cache =
      *new std::map<std::string, std::shared_ptr<const ContactTrace>>();
  char options_key[64];
  std::snprintf(options_key, sizeof(options_key), "|%.17g|%d|%d",
                options.min_duration_seconds, options.max_devices,
                options.rebase_time ? 1 : 0);
  const std::string key = trace_file + options_key;
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Read + parse outside the lock; a racing duplicate parse is harmless.
  std::ifstream in(trace_file, std::ios::binary);
  if (!in) {
    return Status::NotFound("crawdad: cannot open env.trace_file '" +
                            trace_file + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Corruption("crawdad: error reading '" + trace_file + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(ContactTrace trace,
                          ParseCrawdadContacts(text.str(), options));
  if (trace.num_devices() == 0) {
    return Status::InvalidArgument("crawdad: '" + trace_file +
                                   "' contains no usable contacts");
  }
  auto shared = std::make_shared<const ContactTrace>(std::move(trace));
  std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(key, std::move(shared)).first->second;
}

/// CRAWDAD-format contact-table playback (env/crawdad.h): parses
/// env.trace_file into a ContactTrace and replays it exactly like the
/// synthetic haggle environment — round-paced via env.gossip_seconds under
/// driver = rounds, paced by gossip_period under driver = trace. The file
/// is read at trial execution time (once per distinct table; see
/// LoadCrawdadTrace); --dry-run validates the spec without touching it, so
/// the host count is unknown (0) until then.
struct CrawdadSpec {
  std::string trace_file;
  CrawdadOptions options;
  double gossip_seconds = 30.0;
  double group_window_minutes = 10.0;
  int hosts = 0;
};

Result<CrawdadSpec> ParseCrawdadSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "env.");
  CrawdadSpec p;
  DYNAGG_ASSIGN_OR_RETURN(p.trace_file, r.String("env.trace_file", ""));
  DYNAGG_ASSIGN_OR_RETURN(
      p.options.min_duration_seconds,
      r.Double("env.min_duration_seconds", 0.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(p.options.max_devices,
                          r.Int<int>("env.max_devices", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(p.gossip_seconds, ReadGossipSeconds(r, spec));
  DYNAGG_ASSIGN_OR_RETURN(
      p.group_window_minutes,
      r.Double("env.group_window_minutes", p.group_window_minutes, 0.0,
               kMaxMinutes));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (p.trace_file.empty()) {
    return Status::InvalidArgument(
        "crawdad environment requires env.trace_file");
  }
  return p;
}

Result<EnvHandle> MakeCrawdad(const TrialContext&, const CrawdadSpec& p) {
  DYNAGG_ASSIGN_OR_RETURN(std::shared_ptr<const ContactTrace> shared_trace,
                          LoadCrawdadTrace(p.trace_file, p.options));
  EnvHandle handle;
  handle.trace = std::move(shared_trace);
  handle.env = std::make_unique<TraceEnvironment>(
      *handle.trace, FromMinutes(p.group_window_minutes));
  handle.advance_period = FromSeconds(p.gossip_seconds);
  return handle;
}

/// A registry entry from one environment's parse and factory: validate
/// reports the parse's host count, make builds from the parse's result.
template <typename Params>
EnvironmentDef EnvEntry(Result<Params> (*parse)(const ScenarioSpec&),
                        Result<EnvHandle> (*make)(const TrialContext&,
                                                  const Params&),
                        bool provides_trace) {
  EnvironmentDef def;
  def.make = [parse, make](const TrialContext& ctx) -> Result<EnvHandle> {
    DYNAGG_ASSIGN_OR_RETURN(const Params p, parse(*ctx.spec));
    return make(ctx, p);
  };
  def.provides_trace = provides_trace;
  def.validate = [parse](const ScenarioSpec& spec) -> Result<int> {
    DYNAGG_ASSIGN_OR_RETURN(const Params p, parse(spec));
    return p.hosts;
  };
  return def;
}

}  // namespace

namespace internal {

void RegisterBuiltinEnvironments(Registry<EnvironmentDef>& registry) {
  const auto add = [&registry](const std::string& name, EnvironmentDef def) {
    DYNAGG_CHECK(registry.Register(name, std::move(def)).ok());
  };
  add("uniform", EnvEntry(ParseUniformSpec, MakeUniform, false));
  add("spatial", EnvEntry(ParseSpatialSpec, MakeSpatial, false));
  add("random-graph", EnvEntry(ParseRandomGraphSpec, MakeRandomGraph, false));
  add("haggle", EnvEntry(ParseHaggleSpec, MakeHaggle, true));
  add("crawdad", EnvEntry(ParseCrawdadSpec, MakeCrawdad, true));
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
