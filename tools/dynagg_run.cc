// dynagg_run: execute declarative scenario files.
//
//   dynagg_run [--threads=N] [--seed=N] [--output=PATH]
//              [--format=csv|jsonl] [--telemetry=off|summary|profile]
//              [--telemetry-out=FILE] [--progress]
//              file.scenario [more.scenario ...]
//       Run every experiment in each file and write its metric tables to
//       the spec's `output` (default stdout). --seed / --output / --format
//       override the spec for all experiments (reproduction runs with a
//       different base seed need no spec edits).
//       --telemetry overrides the spec's `telemetry` key. In summary mode
//       the per-sweep-point phase-timing/counter table goes to
//       --telemetry-out (CSV/JSONL, same format rules as the main output)
//       or to stderr when no file is given. In profile mode
//       --telemetry-out receives a Chrome trace-event JSON (open in
//       ui.perfetto.dev) combining every profiled experiment, and the
//       summary table is printed to stderr. --progress prints a per-unit
//       completion ticker (done/total, elapsed, ETA) to stderr; it is
//       suppressed when the results go to stdout and stdout is not a
//       terminal (pipe sinks stay clean).
//   dynagg_run --list file.scenario [...]
//       Enumerate the experiments in each file (name, protocol,
//       environment, axes, metrics) without executing anything.
//   dynagg_run --list
//       Print the registered protocols with their capabilities,
//       environments, drivers, keyed workload kinds and record types.
//   dynagg_run --dry-run file.scenario [...]
//       Parse and structurally validate every experiment (registry
//       lookups, metric/aggregate grammar, sweep axes) without executing.
//
// Exit status: 0 on success, 1 on any experiment error, 2 on usage error.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/network_model.h"
#include "obs/trace_export.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/trial.h"
#include "sim/worker_pool.h"
#include "sim/workload.h"

namespace dynagg {
namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// "bench/scenarios/foo.scenario" -> "foo".
std::string FileStem(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path
                                                : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return name;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dynagg_run [--threads=N] [--seed=N] [--output=PATH] "
      "[--format=csv|jsonl]\n"
      "                  [--telemetry=off|summary|profile] "
      "[--telemetry-out=FILE]\n"
      "                  [--progress] file.scenario...\n"
      "       dynagg_run --list [file.scenario...]\n"
      "       dynagg_run --dry-run file.scenario...\n"
      "       dynagg_run --hostinfo\n");
  return 2;
}

/// Writes `text` verbatim to `path` ("-" = stdout). Used for the Chrome
/// trace-event profile, which is one JSON document, not a row stream.
Status WriteTextFile(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return Status::OK();
}

int ListRegistries() {
  std::printf("protocols (capabilities):\n");
  for (const auto& name : scenario::ProtocolRegistry().Names()) {
    const scenario::ProtocolDef def =
        scenario::ProtocolRegistry().Find(name).value();
    std::printf("  %-19s %s\n", name.c_str(),
                def.make_swarm
                    ? scenario::DescribeCapabilities(def.capabilities).c_str()
                    : "custom runner");
  }
  std::printf("environments:\n");
  for (const auto& name : scenario::EnvironmentRegistry().Names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("drivers:\n");
  for (const auto& name : scenario::DriverRegistry().Names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("workloads (workload.kind, stream sketch protocols):\n");
  for (const WorkloadKindInfo& kind : KeyedWorkloadKinds()) {
    std::printf("  %-10s %s\n", kind.name, kind.summary);
  }
  std::printf("record types:\n");
  for (const scenario::RecordTypeInfo& type : scenario::RecordTypeCatalog()) {
    std::printf("  %-10s %s\n", type.name, type.summary);
  }
  std::printf("network models (net.latency, driver = async):\n");
  for (const net::NetCatalogInfo& model : net::NetworkModelCatalog()) {
    std::printf("  %-10s %s\n", model.name, model.summary);
  }
  std::printf("async driver spec keys:\n");
  for (const net::NetCatalogInfo& key : net::AsyncSpecKeyCatalog()) {
    std::printf("  %-21s %s\n", key.name, key.summary);
  }
  return 0;
}

std::string DescribeMetrics(const scenario::ScenarioSpec& spec) {
  std::string out;
  for (size_t i = 0; i < spec.metrics.size(); ++i) {
    if (i) out += ",";
    out += spec.metrics[i].ToString();
  }
  return out;
}

void ListExperiment(const scenario::ScenarioSpec& spec) {
  std::printf("%s\n", spec.name.c_str());
  std::printf("  protocol = %s, environment = %s, driver = %s\n",
              spec.protocol.c_str(), spec.environment.c_str(),
              spec.driver.c_str());
  std::printf("  hosts = %d, rounds = %d, trials = %d, seed = %llu\n",
              spec.hosts, spec.rounds, spec.trials,
              static_cast<unsigned long long>(spec.seed));
  if (!spec.sweep_key.empty()) {
    std::printf("  sweep = %s (%zu values)\n", spec.sweep_key.c_str(),
                spec.sweep_values.size());
  }
  if (!spec.sweep2_key.empty()) {
    std::printf("  sweep2 = %s (%zu values)\n", spec.sweep2_key.c_str(),
                spec.sweep2_values.size());
  }
  std::printf("  record = %s\n", DescribeMetrics(spec).c_str());
  if (!spec.aggregates.empty()) {
    std::string aggs;
    for (size_t i = 0; i < spec.aggregates.size(); ++i) {
      if (i) aggs += ",";
      aggs += spec.aggregates[i];
    }
    std::printf("  aggregate = %s\n", aggs.c_str());
  }
  std::printf("  output = %s (%s)\n", spec.output.c_str(),
              spec.format.c_str());
}

enum class Mode { kRun, kList, kDryRun };

int Run(int argc, char** argv) {
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  Mode mode = Mode::kRun;
  bool has_seed_override = false;
  uint64_t seed_override = 0;
  std::string output_override;
  std::string format_override;
  std::string telemetry_override;
  std::string telemetry_out;
  bool progress = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      mode = Mode::kList;
    } else if (arg == "--hostinfo") {
      // The CPU counts perf tooling should report: the raw hardware value
      // AND what the scheduler actually grants (cgroup/affinity mask) —
      // `cpus: 1` in a bench snapshot is unreadable without both.
      std::printf("hardware_concurrency=%d\naffinity_cpus=%d\n",
                  WorkerPool::HardwareConcurrency(),
                  WorkerPool::AffinityCpus());
      return 0;
    } else if (arg == "--dry-run") {
      mode = Mode::kDryRun;
    } else if (arg.rfind("--threads=", 0) == 0) {
      Result<int64_t> v = scenario::ParseInt64(arg.substr(10));
      if (!v.ok() || *v < 1) {
        std::fprintf(stderr, "dynagg_run: bad --threads value\n");
        return 2;
      }
      threads = static_cast<int>(*v);
    } else if (arg.rfind("--seed=", 0) == 0) {
      Result<int64_t> v = scenario::ParseInt64(arg.substr(7));
      if (!v.ok()) {
        std::fprintf(stderr, "dynagg_run: bad --seed value\n");
        return 2;
      }
      has_seed_override = true;
      seed_override = static_cast<uint64_t>(*v);
    } else if (arg.rfind("--output=", 0) == 0) {
      output_override = arg.substr(9);
    } else if (arg.rfind("--format=", 0) == 0) {
      format_override = arg.substr(9);
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_override = arg.substr(12);
      if (telemetry_override != "off" && telemetry_override != "summary" &&
          telemetry_override != "profile") {
        std::fprintf(stderr,
                     "dynagg_run: --telemetry must be off, summary or "
                     "profile\n");
        return 2;
      }
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      telemetry_out = arg.substr(16);
      if (telemetry_out.empty()) {
        std::fprintf(stderr, "dynagg_run: --telemetry-out needs a path\n");
        return 2;
      }
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dynagg_run: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    if (mode == Mode::kList) return ListRegistries();
    return Usage();
  }

  // Paths already written this invocation: the first experiment truncates,
  // later ones append, so experiments sharing one output file all survive.
  std::set<std::string> written_paths;
  // Telemetry gathered across experiments: summary tables append to
  // --telemetry-out as they arrive; profiled span streams combine into ONE
  // trace document (pid per experiment) written after the last run.
  std::vector<obs::ProcessProfile> profiles;
  bool any_profile = false;
  bool telemetry_out_written = false;
  int validated = 0;
  for (const std::string& file : files) {
    Result<std::string> text = ReadFile(file);
    if (!text.ok()) {
      std::fprintf(stderr, "dynagg_run: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    Result<std::vector<scenario::ScenarioSpec>> specs =
        scenario::ParseScenarioFile(*text, FileStem(file));
    if (!specs.ok()) {
      std::fprintf(stderr, "dynagg_run: %s: %s\n", file.c_str(),
                   specs.status().ToString().c_str());
      return 1;
    }
    for (scenario::ScenarioSpec& spec : *specs) {
      if (has_seed_override) spec.seed = seed_override;
      if (mode == Mode::kList) {
        ListExperiment(spec);
        continue;
      }
      if (mode == Mode::kDryRun) {
        const Status st = scenario::ValidateExperiment(spec);
        if (!st.ok()) {
          std::fprintf(stderr, "dynagg_run: %s: %s\n", file.c_str(),
                       st.ToString().c_str());
          return 1;
        }
        ++validated;
        continue;
      }
      const std::string output =
          output_override.empty() ? spec.output : output_override;
      const std::string format =
          format_override.empty() ? spec.format : format_override;
      const std::string telemetry_mode =
          telemetry_override.empty() ? spec.telemetry : telemetry_override;
      const bool collect =
          telemetry_mode == "summary" || telemetry_mode == "profile";

      scenario::RunOptions options;
      options.threads = threads;
      options.telemetry = telemetry_override;
      // The ticker writes to stderr but stays quiet when the results are
      // being piped from stdout — progress noise next to machine-read
      // output helps nobody.
      const bool show_progress =
          progress && !(output == "-" && isatty(STDOUT_FILENO) == 0);
      const auto run_start = std::chrono::steady_clock::now();
      if (show_progress) {
        options.on_unit_done = [&run_start, &spec](int done, int total) {
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            run_start)
                  .count();
          const double eta =
              done > 0 ? elapsed / done * (total - done) : 0.0;
          std::fprintf(stderr,
                       "\rdynagg_run: %s: %d/%d units, %.1fs elapsed, "
                       "eta %.1fs ",
                       spec.name.c_str(), done, total, elapsed, eta);
          std::fflush(stderr);
        };
      }

      scenario::ExperimentTelemetry telemetry;
      Result<std::vector<scenario::ResultTable>> tables =
          scenario::RunExperiment(spec, options,
                                  collect ? &telemetry : nullptr);
      if (show_progress) std::fprintf(stderr, "\n");
      if (!tables.ok()) {
        std::fprintf(stderr, "dynagg_run: %s: %s\n", file.c_str(),
                     tables.status().ToString().c_str());
        return 1;
      }
      const bool append =
          output != "-" && !written_paths.insert(output).second;
      const Status st =
          scenario::WriteTables(*tables, spec.name, format, output, append);
      if (!st.ok()) {
        std::fprintf(stderr, "dynagg_run: %s: %s\n", file.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      if (collect) {
        const bool summary_to_file =
            telemetry_mode == "summary" && !telemetry_out.empty();
        if (summary_to_file) {
          const Status ts = scenario::WriteTables(
              telemetry.summary, spec.name, format, telemetry_out,
              telemetry_out_written);
          if (!ts.ok()) {
            std::fprintf(stderr, "dynagg_run: %s: %s\n", file.c_str(),
                         ts.ToString().c_str());
            return 1;
          }
          telemetry_out_written = true;
        } else {
          // Profile mode (the file receives the trace) and file-less
          // summary mode both print the table to stderr.
          Result<std::string> rendered =
              scenario::RenderTables(telemetry.summary, spec.name, "csv");
          if (rendered.ok()) std::fputs(rendered->c_str(), stderr);
        }
        if (telemetry_mode == "profile") {
          any_profile = true;
          profiles.push_back(
              {telemetry.experiment, std::move(telemetry.units)});
        }
      }
    }
  }
  if (any_profile) {
    if (telemetry_out.empty()) {
      std::fprintf(stderr,
                   "dynagg_run: telemetry = profile collected span streams "
                   "but no --telemetry-out=FILE was given; the trace was "
                   "dropped\n");
    } else {
      const Status st =
          WriteTextFile(telemetry_out, obs::RenderChromeTrace(profiles));
      if (!st.ok()) {
        std::fprintf(stderr, "dynagg_run: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "dynagg_run: wrote trace-event profile for %zu "
                   "experiment%s to %s\n",
                   profiles.size(), profiles.size() == 1 ? "" : "s",
                   telemetry_out.c_str());
    }
  }
  if (mode == Mode::kDryRun) {
    std::printf("dynagg_run: validated %d experiment%s in %zu file%s\n",
                validated, validated == 1 ? "" : "s", files.size(),
                files.size() == 1 ? "" : "s");
  }
  return 0;
}

}  // namespace
}  // namespace dynagg

int main(int argc, char** argv) { return dynagg::Run(argc, argv); }
