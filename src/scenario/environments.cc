// Builtin environment catalog: uniform, spatial, random-graph, haggle,
// crawdad.
//
// Each factory validates its env.* parameters against an allowlist (typos
// fail loudly) and returns a fully constructed EnvHandle. Stochastic
// environments derive their seeds from the trial seed so trials stay
// independent and the parallel executor deterministic; the crawdad
// environment replays an external contact table instead (env.trace_file),
// so every trial observes the same real-world trace.

#include <cmath>
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

// Each environment's spec-only checks live in a Validate*Spec function
// wired onto EnvironmentDef::validate, so --dry-run applies them to every
// cell of the sweep grid (a hosts sweep can undercut env.degree). The
// factories call the same function first — the runtime rejects exactly
// what --dry-run rejects, never more.

Status ValidateUniformSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("env.", {}));
  if (spec.hosts <= 0) {
    return Status::InvalidArgument(
        "uniform environment requires hosts > 0");
  }
  return Status::OK();
}

Result<EnvHandle> MakeUniform(const TrialContext& ctx) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(ValidateUniformSpec(spec));
  EnvHandle handle;
  handle.env = std::make_unique<UniformEnvironment>(spec.hosts);
  return handle;
}

Status ValidateSpatialSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("env.", {"width", "height", "max_distance"}));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t width,
                          spec.ParamInt("env.width", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t height,
                          spec.ParamInt("env.height", 0));
  DYNAGG_RETURN_IF_ERROR(spec.ParamInt("env.max_distance", 0).status());
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument(
        "spatial environment requires env.width > 0 and env.height > 0");
  }
  return Status::OK();
}

Result<EnvHandle> MakeSpatial(const TrialContext& ctx) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(ValidateSpatialSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t width,
                          spec.ParamInt("env.width", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t height,
                          spec.ParamInt("env.height", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t max_distance,
                          spec.ParamInt("env.max_distance", 0));
  EnvHandle handle;
  handle.env = std::make_unique<SpatialGridEnvironment>(
      static_cast<int>(width), static_cast<int>(height),
      static_cast<int>(max_distance));
  return handle;
}

Status ValidateRandomGraphSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("env.", {"degree", "seed_stream"}));
  if (spec.hosts <= 0) {
    return Status::InvalidArgument(
        "random-graph environment requires hosts > 0");
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t degree,
                          spec.ParamInt("env.degree", 8));
  DYNAGG_RETURN_IF_ERROR(spec.ParamInt("env.seed_stream", 0x9a17).status());
  if (degree < 1) {
    return Status::InvalidArgument("env.degree must be >= 1");
  }
  // The configuration model pairs `degree` distinct stubs per vertex; at
  // degree >= hosts it cannot even allocate them.
  if (degree >= spec.hosts) {
    return Status::InvalidArgument(
        "env.degree = " + std::to_string(degree) +
        " must be below hosts = " + std::to_string(spec.hosts) +
        " (each host needs that many distinct neighbors)");
  }
  return Status::OK();
}

Result<EnvHandle> MakeRandomGraph(const TrialContext& ctx) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(ValidateRandomGraphSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t degree,
                          spec.ParamInt("env.degree", 8));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t stream,
                          spec.ParamInt("env.seed_stream", 0x9a17));
  EnvHandle handle;
  handle.env = std::make_unique<RandomGraphEnvironment>(
      spec.hosts, static_cast<int>(degree),
      DeriveSeed(ctx.trial_seed, static_cast<uint64_t>(stream)));
  return handle;
}

Status ValidateHaggleSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "env.",
      {"dataset", "hours", "gossip_seconds", "group_window_minutes",
       "seed_stream", "trace_seed"}));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t dataset,
                          spec.ParamInt("env.dataset", 1));
  if (dataset < 1 || dataset > 3) {
    return Status::InvalidArgument("env.dataset must be 1, 2 or 3");
  }
  DYNAGG_ASSIGN_OR_RETURN(const double hours,
                          spec.ParamDouble("env.hours", 0.0));
  // The trace horizon becomes 64-bit microseconds (FromHours): NaN or
  // anything past about 2.5e9 hours would overflow the cast.
  if (!(std::fabs(hours) * 3600.0 * 1e6 < 0x1p63)) {
    return Status::InvalidArgument(
        "env.hours overflows simulated time (64-bit microseconds, at most "
        "about 2.5e9 hours)");
  }
  DYNAGG_ASSIGN_OR_RETURN(const double gossip_seconds,
                          spec.ParamDouble("env.gossip_seconds", 30.0));
  DYNAGG_RETURN_IF_ERROR(
      spec.ParamDouble("env.group_window_minutes", 10.0).status());
  DYNAGG_RETURN_IF_ERROR(spec.ParamInt("env.seed_stream", 0x7a5e).status());
  if (gossip_seconds <= 0) {
    return Status::InvalidArgument("env.gossip_seconds must be > 0");
  }
  // env.gossip_seconds paces round-driven playback (advance_period); the
  // trace driver ticks on the top-level gossip_period, so an explicit
  // value there would be silently dead.
  if (spec.driver == "trace" && spec.HasParam("env.gossip_seconds")) {
    return Status::InvalidArgument(
        "env.gossip_seconds paces the rounds driver; under driver = trace "
        "set the top-level gossip_period instead");
  }
  DYNAGG_ASSIGN_OR_RETURN(const std::string trace_seed,
                          spec.ParamString("env.trace_seed", ""));
  if (!trace_seed.empty() && trace_seed != "preset") {
    DYNAGG_RETURN_IF_ERROR(spec.ParamInt("env.trace_seed", 0).status());
  }
  return Status::OK();
}

Result<EnvHandle> MakeHaggle(const TrialContext& ctx) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(ValidateHaggleSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t dataset,
                          spec.ParamInt("env.dataset", 1));
  DYNAGG_ASSIGN_OR_RETURN(const double hours,
                          spec.ParamDouble("env.hours", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(const double gossip_seconds,
                          spec.ParamDouble("env.gossip_seconds", 30.0));
  DYNAGG_ASSIGN_OR_RETURN(
      const double group_window,
      spec.ParamDouble("env.group_window_minutes", 10.0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t stream,
                          spec.ParamInt("env.seed_stream", 0x7a5e));

  HaggleGenParams params;
  switch (dataset) {
    case 1:
      params = HaggleDataset1();
      break;
    case 2:
      params = HaggleDataset2();
      break;
    case 3:
      params = HaggleDataset3();
      break;
    default:
      return Status::InvalidArgument("env.dataset must be 1, 2 or 3");
  }
  if (hours > 0) params.duration_hours = hours;
  // The trace seed: derived from the trial seed by default (independent
  // trials), or pinned via env.trace_seed — `preset` keeps the dataset
  // preset's fixed seed (every trial and sweep unit replays the SAME
  // trace, the legacy fig11 convention), an integer pins it explicitly.
  DYNAGG_ASSIGN_OR_RETURN(const std::string trace_seed,
                          spec.ParamString("env.trace_seed", ""));
  if (trace_seed.empty()) {
    params.seed = DeriveSeed(ctx.trial_seed, static_cast<uint64_t>(stream));
  } else if (trace_seed != "preset") {
    DYNAGG_ASSIGN_OR_RETURN(const int64_t fixed,
                            spec.ParamInt("env.trace_seed", 0));
    params.seed = static_cast<uint64_t>(fixed);
  }

  EnvHandle handle;
  handle.trace =
      std::make_shared<const ContactTrace>(GenerateHaggleTrace(params));
  handle.env = std::make_unique<TraceEnvironment>(
      *handle.trace, FromMinutes(group_window));
  handle.advance_period = FromSeconds(gossip_seconds);
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
/// LoadCrawdadTrace); --dry-run validates the spec without touching it.
Status ValidateCrawdadSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "env.", {"trace_file", "min_duration_seconds", "max_devices",
               "gossip_seconds", "group_window_minutes"}));
  DYNAGG_ASSIGN_OR_RETURN(const std::string trace_file,
                          spec.ParamString("env.trace_file", ""));
  if (trace_file.empty()) {
    return Status::InvalidArgument(
        "crawdad environment requires env.trace_file");
  }
  DYNAGG_ASSIGN_OR_RETURN(
      const double min_duration,
      spec.ParamDouble("env.min_duration_seconds", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t max_devices,
                          spec.ParamInt("env.max_devices", 0));
  DYNAGG_ASSIGN_OR_RETURN(const double gossip_seconds,
                          spec.ParamDouble("env.gossip_seconds", 30.0));
  DYNAGG_RETURN_IF_ERROR(
      spec.ParamDouble("env.group_window_minutes", 10.0).status());
  if (min_duration < 0 || max_devices < 0) {
    return Status::InvalidArgument(
        "env.min_duration_seconds and env.max_devices must be >= 0");
  }
  if (gossip_seconds <= 0) {
    return Status::InvalidArgument("env.gossip_seconds must be > 0");
  }
  if (spec.driver == "trace" && spec.HasParam("env.gossip_seconds")) {
    return Status::InvalidArgument(
        "env.gossip_seconds paces the rounds driver; under driver = trace "
        "set the top-level gossip_period instead");
  }
  return Status::OK();
}

Result<EnvHandle> MakeCrawdad(const TrialContext& ctx) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(ValidateCrawdadSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(const std::string trace_file,
                          spec.ParamString("env.trace_file", ""));
  CrawdadOptions options;
  DYNAGG_ASSIGN_OR_RETURN(
      options.min_duration_seconds,
      spec.ParamDouble("env.min_duration_seconds", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t max_devices,
                          spec.ParamInt("env.max_devices", 0));
  DYNAGG_ASSIGN_OR_RETURN(const double gossip_seconds,
                          spec.ParamDouble("env.gossip_seconds", 30.0));
  DYNAGG_ASSIGN_OR_RETURN(
      const double group_window,
      spec.ParamDouble("env.group_window_minutes", 10.0));
  options.max_devices = static_cast<int>(max_devices);

  DYNAGG_ASSIGN_OR_RETURN(
      std::shared_ptr<const ContactTrace> shared_trace,
      LoadCrawdadTrace(trace_file, options));

  EnvHandle handle;
  handle.trace = std::move(shared_trace);
  handle.env = std::make_unique<TraceEnvironment>(
      *handle.trace, FromMinutes(group_window));
  handle.advance_period = FromSeconds(gossip_seconds);
  return handle;
}

}  // namespace

namespace internal {

void RegisterBuiltinEnvironments(Registry<EnvironmentDef>& registry) {
  DYNAGG_CHECK(registry
                   .Register("uniform", {MakeUniform, /*provides_trace=*/false,
                                         ValidateUniformSpec})
                   .ok());
  DYNAGG_CHECK(registry
                   .Register("spatial", {MakeSpatial, /*provides_trace=*/false,
                                         ValidateSpatialSpec})
                   .ok());
  DYNAGG_CHECK(registry
                   .Register("random-graph",
                             {MakeRandomGraph, /*provides_trace=*/false,
                              ValidateRandomGraphSpec})
                   .ok());
  DYNAGG_CHECK(registry
                   .Register("haggle", {MakeHaggle, /*provides_trace=*/true,
                                        ValidateHaggleSpec})
                   .ok());
  DYNAGG_CHECK(registry
                   .Register("crawdad", {MakeCrawdad, /*provides_trace=*/true,
                                         ValidateCrawdadSpec})
                   .ok());
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
