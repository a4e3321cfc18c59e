// dynagg_fuzz: spec-grammar fuzzer for the scenario surface.
//
//   dynagg_fuzz [--seed=S] [--count=N] [--out-dir=DIR] [--verbose]
//   dynagg_fuzz --seed-corpus [--out-dir=DIR]
//
// Walks the validated spec grammar — protocol / environment / driver names
// harvested live from the registries, key types and value ranges mirrored
// from the per-protocol validators — and generates seeded VALID specs plus
// near-valid mutants (typoed keys, junk values, dropped lines, forbidden
// key combinations, unknown namespaced knobs, capability probes that ask
// any protocol for bandwidth, gossip_bytes, kill_top_fraction, threads or
// churn, seeds.* stream terms, a selector or record.* key from every
// family, foreign-key probes). Valid specs include two-axis sweep grids
// whose second axis is checked against the first (hosts x churn.initial /
// churn.max_alive / env.degree, rounds x record.from), so a cell that
// combines two valid axis values can still be invalid. Every generated
// spec must uphold the dry-run contract:
//
//   it either fails `--dry-run` (parse or ValidateExperiment) with an
//   actionable message, or it executes clean.
//
// A foreign-key probe appends one key that no parse of the spec's cells
// reads (net.loss under driver = rounds, workload.skew on a protocol that
// is no stream sketch, ...) to a spec that passes `--dry-run`; the result
// must fail `--dry-run` naming that key.
//
// A spec that passes validation but fails at execution is exactly the bug
// class `--dry-run` promises cannot exist, so each one is dumped as a
// repro artifact (<out-dir>/fuzz_repro_<seed>_<index>.scenario with the
// error in a comment header) and the run exits nonzero. Each accepted
// spec's repro is written before it executes and removed once it passes,
// so one that aborts the process or hangs leaves its repro too. CI runs
// the fixed seed corpus plus a rolling random batch under ASan/UBSan (see
// .github/workflows/ci.yml), so "executes clean" also means "no sanitizer
// findings".
//
// Exit status: 0 when every spec upheld the contract, 1 otherwise, 2 on
// usage error.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "scenario/executor.h"
#include "scenario/spec.h"
#include "scenario/trial.h"

namespace dynagg {
namespace {

using scenario::ProtocolDef;
using scenario::ScenarioSpec;

// ------------------------------------------------------------ generator ---

/// One key = value line of a spec under construction. Kept as strings so
/// mutations can corrupt them the way a hand-edited file would be.
struct SpecLine {
  std::string key;
  std::string value;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string RenderLines(const std::vector<SpecLine>& lines) {
  std::string text;
  for (const SpecLine& line : lines) {
    if (line.key.empty()) {
      text += line.value + "\n";  // raw line (mutations inject these)
    } else {
      text += line.key + " = " + line.value + "\n";
    }
  }
  return text;
}

/// Emits the protocol.* knobs of `name` with values drawn from the ranges
/// the validators accept — the "valid spec" half of the grammar walk. The
/// table mirrors scenario/protocols.cc and stream/stream_protocols.cc;
/// protocols it does not know get no knobs (defaults are always valid).
void AppendProtocolKnobs(const std::string& name, Rng& rng,
                         std::vector<SpecLine>* lines) {
  const auto maybe = [&rng](double p) { return rng.Bernoulli(p); };
  if (name == "push-sum") {
    if (maybe(0.5)) {
      lines->push_back(
          {"protocol.mode", rng.Bernoulli(0.5) ? "push" : "pushpull"});
    }
  } else if (name == "push-sum-revert") {
    if (maybe(0.6)) {
      lines->push_back(
          {"protocol.lambda", FormatDouble(rng.UniformDouble(0.0, 0.3))});
    }
  } else if (name == "epoch-push-sum") {
    if (maybe(0.6)) {
      lines->push_back({"protocol.epoch_length",
                        std::to_string(rng.UniformRange(2, 20))});
    }
  } else if (name == "full-transfer") {
    if (maybe(0.5)) {
      lines->push_back(
          {"protocol.parcels", std::to_string(rng.UniformRange(1, 8))});
    }
    if (maybe(0.5)) {
      lines->push_back(
          {"protocol.window", std::to_string(rng.UniformRange(1, 6))});
    }
  } else if (name == "extremes") {
    if (maybe(0.5)) {
      lines->push_back({"protocol.kind", rng.Bernoulli(0.5) ? "max" : "min"});
    }
    if (maybe(0.5)) {
      lines->push_back(
          {"protocol.cutoff", std::to_string(rng.UniformRange(4, 24))});
    }
  } else if (name == "count-sketch" || name == "count-sketch-reset" ||
             name == "invert-average" || name == "node-aggregator") {
    if (maybe(0.5)) {
      lines->push_back(
          {"protocol.bins", std::to_string(rng.UniformRange(8, 64))});
    }
    if (maybe(0.5)) {
      lines->push_back(
          {"protocol.levels", std::to_string(rng.UniformRange(4, 24))});
    }
    if (name != "count-sketch" && maybe(0.3)) {
      lines->push_back(
          {"protocol.multiplicity", std::to_string(rng.UniformRange(1, 8))});
    }
  } else if (name == "count-min" || name == "count-sketch-freq") {
    // Explicit small shapes keep the fuzz workload cheap; epsilon/delta
    // derivation is exercised by leaving the keys off sometimes.
    if (maybe(0.7)) {
      lines->push_back({"protocol.depth",
                        std::to_string(rng.UniformRange(1, 4))});
      lines->push_back(
          {"protocol.width",
           std::to_string(int64_t{1} << rng.UniformRange(3, 8))});
    }
  }
}

/// "<key>: a, b" with two draws from [lo, hi].
std::string SweepAxis(const std::string& key, int64_t lo, int64_t hi,
                      Rng& rng) {
  return key + ": " + std::to_string(rng.UniformRange(lo, hi)) + ", " +
         std::to_string(rng.UniformRange(lo, hi));
}

/// A registered protocol as the generator sees it.
struct FuzzProtocol {
  std::string name;
  ProtocolDef def;
  /// Whether its parse reads workload.kind: the stream sketch protocols,
  /// which consume a keyed stream workload and require one declared.
  bool workload = false;
};

bool ReadsWorkload(const ProtocolDef& def) {
  ScenarioSpec spec;
  spec.hosts = 16;
  spec.params["workload.kind"] = "zipf";
  scenario::TrialContext ctx;
  ctx.spec = &spec;
  scenario::RecordReader records(spec);
  const scenario::KeyReads reads;
  return def.validate(ctx, records).ok() && reads.Read("workload.kind");
}

/// Builds one structurally valid spec: bounded sizes, knobs inside the
/// validated ranges, stream workloads for the protocols that require one,
/// churn plans only on join-capable swarm protocols, sometimes a two-axis
/// sweep grid, sometimes a short contact-trace replay (driver = trace) for
/// trace-capable ones and sometimes message-level gossip over a lossy
/// network (driver = async) for async-capable ones.
std::vector<SpecLine> GenerateValidSpec(const FuzzProtocol& protocol,
                                        int index, Rng& rng) {
  const ProtocolDef& def = protocol.def;
  std::vector<SpecLine> lines;
  lines.push_back({"name", "fuzz_" + std::to_string(index)});
  lines.push_back({"protocol", protocol.name});
  const bool custom = def.make_swarm == nullptr;
  // The trace driver replays the haggle environment's synthetic trace for
  // 1-3 hours. Its horizon sets the run length and its timeline has no
  // rounds, so a trace spec gets no rounds, failure.*, churn.* or
  // record.* lines.
  const bool trace = !custom &&
                     def.capabilities.Has(scenario::Capability::kTrace) &&
                     rng.Bernoulli(0.2);
  // The async driver ticks `rounds` times and reads no failure.* or
  // churn.* key; pairwise exchanges cannot be split into messages, so
  // push-sum runs it in push mode.
  const bool async = !custom && !trace &&
                     def.capabilities.Has(scenario::Capability::kAsync) &&
                     rng.Bernoulli(0.2);
  int hosts = 0;
  int rounds = 0;
  if (trace) {
    lines.push_back({"driver", "trace"});
    lines.push_back({"environment", "haggle"});
    lines.push_back({"env.dataset", "1"});
    lines.push_back({"env.hours", std::to_string(rng.UniformRange(1, 3))});
  } else {
    hosts = static_cast<int>(rng.UniformRange(2, 256));
    lines.push_back({"hosts", std::to_string(hosts)});
    rounds = static_cast<int>(rng.UniformRange(1, 40));
    lines.push_back({"rounds", std::to_string(rounds)});
  }
  lines.push_back({"trials", std::to_string(rng.UniformRange(1, 2))});
  lines.push_back({"seed", std::to_string(rng.Next() >> 1)});

  // Custom runners own their environment/record surface; keep them on the
  // defaults the validators accept.
  const bool random_graph = !custom && !trace && rng.Bernoulli(0.25);
  if (random_graph) {
    lines.push_back({"environment", "random-graph"});
    lines.push_back(
        {"env.degree", std::to_string(rng.UniformRange(2, 8))});
  }

  if (protocol.workload) {
    const bool zipf = rng.Bernoulli(0.7);
    lines.push_back({"workload.kind", zipf ? "zipf" : "uniform"});
    lines.push_back(
        {"workload.keys", std::to_string(rng.UniformRange(16, 4096))});
    lines.push_back(
        {"workload.batch", std::to_string(rng.UniformRange(1, 32))});
    if (zipf && rng.Bernoulli(0.5)) {
      lines.push_back(
          {"workload.skew", FormatDouble(rng.UniformDouble(0.5, 2.0))});
    }
  }

  AppendProtocolKnobs(protocol.name, rng, &lines);
  if (trace) {
    if (rng.Bernoulli(0.3)) lines.push_back({"record", "rms, avg_group_size"});
    return lines;
  }
  if (async) {
    lines.push_back({"driver", "async"});
    if (protocol.name == "push-sum") lines.push_back({"protocol.mode", "push"});
    if (rng.Bernoulli(0.5)) {
      lines.push_back({"net.latency", "exponential"});
      lines.push_back(
          {"net.latency_s", FormatDouble(rng.UniformDouble(0.0, 60.0))});
    }
    if (rng.Bernoulli(0.5)) {
      lines.push_back({"net.loss", FormatDouble(rng.UniformDouble(0.0, 0.3))});
    }
    if (rng.Bernoulli(0.3)) {
      lines.push_back({"record", "rms, final_rms, delivery_rate"});
    }
    return lines;
  }

  bool used_churn = false;
  if (def.capabilities.Has(scenario::Capability::kJoin) && !custom &&
      rng.Bernoulli(0.4)) {
    used_churn = true;
    if (rng.Bernoulli(0.7)) {
      lines.push_back(
          {"churn.initial",
           std::to_string(rng.UniformRange(1, hosts))});
    }
    if (rng.Bernoulli(0.7)) {
      lines.push_back(
          {"churn.arrival_rate", FormatDouble(rng.UniformDouble(0.0, 4.0))});
    }
    if (rng.Bernoulli(0.7)) {
      lines.push_back(
          {"churn.death_prob", FormatDouble(rng.UniformDouble(0.0, 0.05))});
      lines.push_back(
          {"churn.rebirth_prob", FormatDouble(rng.UniformDouble(0.0, 0.5))});
    }
  } else if (!custom && rng.Bernoulli(0.25)) {
    lines.push_back({"failure.kind", "churn"});
    lines.push_back(
        {"failure.death_prob", FormatDouble(rng.UniformDouble(0.0, 0.05))});
  }

  bool record_set = false;
  if (rng.Bernoulli(0.3)) {
    if (used_churn && rng.Bernoulli(0.5)) {
      lines.push_back({"sweep", "churn.arrival_rate: 0, 1, 3"});
    } else {
      lines.push_back(
          {"sweep", "rounds: " + std::to_string(rng.UniformRange(2, 10)) +
                        ", " + std::to_string(rng.UniformRange(11, 40))});
    }
  } else if (!custom && rng.Bernoulli(0.3)) {
    // A two-axis grid: the second axis is bounded by the first, and both
    // draw from overlapping ranges, so some cells combine two values that
    // are each valid against the other axis's base value but not
    // together.
    std::vector<std::string> seconds = {"record.from"};
    if (used_churn) {
      seconds.push_back("churn.initial");
      seconds.push_back("churn.max_alive");
    }
    if (random_graph) seconds.push_back("env.degree");
    const std::string& second = seconds[rng.UniformInt(seconds.size())];
    if (second == "record.from") {
      lines.push_back({"sweep", SweepAxis("rounds", 1, 40, rng)});
      lines.push_back({"sweep2", SweepAxis("record.from", 0, 40, rng)});
      lines.push_back({"record", "rms, rms_tail_mean"});
      record_set = true;
    } else {
      lines.push_back({"sweep", SweepAxis("hosts", 2, 256, rng)});
      lines.push_back({"sweep2", second == "env.degree"
                                     ? SweepAxis(second, 2, 64, rng)
                                     : SweepAxis(second, 1, 256, rng)});
    }
  }
  // The default record (rms) is accepted by every registered protocol,
  // including the custom runners; sometimes add the tail-mean scalar.
  if (!custom && !record_set && rng.Bernoulli(0.3)) {
    lines.push_back({"record", "rms, rms_tail_mean"});
    lines.push_back(
        {"record.from", std::to_string(rng.UniformRange(0, rounds))});
  }
  return lines;
}

// ------------------------------------------------------------- mutation ---

const char* const kJunkValues[] = {"",     "banana", "-3",   "1e99",
                                   "0x",   "true false", "nan", "2,",
                                   "  ",   "inf",    "-inf",
                                   "2147483648", "4294967297"};

/// The value of the last `key` line of `lines`, or `def` without one.
std::string LastValue(const std::vector<SpecLine>& lines,
                      const std::string& key, const std::string& def) {
  std::string value = def;
  for (const SpecLine& line : lines) {
    if (line.key == key) value = line.value;
  }
  return value;
}

/// Appends one key that no parse of the spec's cells reads, given its
/// driver and protocol, and returns that key ("" when none applies). The
/// sweep-value probe resolves seeds.round_stream = sweepval on a value
/// above 2^64, so it needs a rounds swarm spec without a sweep of its own.
std::string AppendForeignKey(std::vector<SpecLine>* lines,
                             const FuzzProtocol& protocol, Rng& rng) {
  const std::string driver = LastValue(*lines, "driver", "rounds");
  const bool custom = protocol.def.make_swarm == nullptr;
  std::vector<SpecLine> probes;
  if (driver != "async") {
    probes.push_back({"net.loss", "0.1"});
    probes.push_back({"seeds.message_stream", "7"});
  }
  if (!protocol.workload) probes.push_back({"workload.skew", "1.5"});
  if (driver != "rounds" || custom) {
    probes.push_back({"churn.death_prob", "0.05"});
  }
  if (driver == "async" || (custom && protocol.name != "tag-tree")) {
    probes.push_back({"failure.kind", "churn"});
  }
  if (!protocol.def.uses_environment) probes.push_back({"env.degree", "4"});
  const bool swept = LastValue(*lines, "sweep", "") != "";
  if (driver == "rounds" && !custom && !swept) {
    probes.push_back({"seeds.round_stream", "sweepval"});
  }
  if (probes.empty()) return "";
  const SpecLine probe = probes[rng.UniformInt(probes.size())];
  if (probe.value == "sweepval") {
    lines->push_back({"sweep", "record.threshold: 1e300, 2e300"});
  }
  lines->push_back(probe);
  return probe.key;
}

/// Applies one random near-valid mutation to `lines`. Mutants must stay
/// CHEAP when they survive validation: mutations corrupt or add keys and
/// draw junk values, and even the boundary draws (inf, 2^31, 2^32 + 1)
/// are cheap because every namespaced numeric key declares its range where
/// its parse reads it, so a value that survives is one the range admits.
/// The top-level sizes are int-checked by the parser, and
/// intra_round_threads stays capped by the visible CPUs in the worker
/// pool. Returns the key a foreign-key probe appended, "" otherwise.
std::string Mutate(std::vector<SpecLine>* lines, const FuzzProtocol& protocol,
                   Rng& rng) {
  const auto pick_line = [&rng, lines]() -> SpecLine* {
    if (lines->empty()) return nullptr;
    return &(*lines)[rng.UniformInt(lines->size())];
  };
  switch (rng.UniformInt(16)) {
    case 0: {  // typo a key: drop one character
      SpecLine* line = pick_line();
      if (line != nullptr && !line->key.empty()) {
        line->key.erase(rng.UniformInt(line->key.size()), 1);
      }
      break;
    }
    case 1: {  // junk value
      SpecLine* line = pick_line();
      if (line != nullptr) {
        line->value = kJunkValues[rng.UniformInt(std::size(kJunkValues))];
      }
      break;
    }
    case 2: {  // unknown namespaced knob
      static const char* const kPrefixes[] = {
          "protocol.", "env.",      "failure.", "record.",
          "seeds.",    "workload.", "net.",     "churn."};
      lines->push_back(
          {std::string(kPrefixes[rng.UniformInt(std::size(kPrefixes))]) +
               "bogus_knob",
           "1"});
      break;
    }
    case 3:  // unknown top-level key
      lines->push_back({"bogus", "1"});
      break;
    case 4: {  // drop a line (may remove a required key)
      if (!lines->empty()) {
        lines->erase(lines->begin() +
                     static_cast<long>(rng.UniformInt(lines->size())));
      }
      break;
    }
    case 5: {  // duplicate a line
      SpecLine* line = pick_line();
      if (line != nullptr) lines->push_back(*line);
      break;
    }
    case 6:  // churn keys on whatever protocol the spec has
      lines->push_back({"churn.arrival_rate", "1.0"});
      break;
    case 7:  // the forbidden churn x failure combination
      lines->push_back({"churn.death_prob", "0.1"});
      lines->push_back({"failure.kind", "churn"});
      lines->push_back({"failure.death_prob", "0.1"});
      break;
    case 8:  // driver swap without the keys the driver needs
      lines->push_back({"driver", rng.Bernoulli(0.5) ? "async" : "trace"});
      break;
    case 9:  // malformed sweep axes
      lines->push_back(
          {"sweep", rng.Bernoulli(0.5) ? "protocol.lambda: banana, 2"
                                       : "unknown.key: 1, 2"});
      break;
    case 10:  // raw garbage line
      lines->push_back({"", "this is not a key value line"});
      break;
    case 11:  // unknown / duplicate record selector
      lines->push_back(
          {"record", rng.Bernoulli(0.5) ? "frobnicate" : "rms, rms"});
      break;
    case 12: {  // capability probe: a key only some protocols support
      static const SpecLine kProbes[] = {
          {"record", "bandwidth"},
          {"record", "gossip_bytes"},
          {"failure.kind", "kill_top_fraction"},
          {"intra_round_threads", "2"},
          {"churn.death_prob", "0.05"}};
      lines->push_back(kProbes[rng.UniformInt(std::size(kProbes))]);
      break;
    }
    case 13: {  // a seeds.* stream expression, well- or ill-formed
      static const char* const kStreams[] = {
          "round_stream", "failure_stream", "workload_stream",
          "churn_stream", "message_stream"};
      static const char* const kTerms[] = {
          "7", "hosts+1", "sweep+10", "sweep2", "sweepval*10",
          "sweep2val*100", "1+banana", "3+", "sweepval*0", "-1"};
      lines->push_back(
          {std::string("seeds.") +
               kStreams[rng.UniformInt(std::size(kStreams))],
           kTerms[rng.UniformInt(std::size(kTerms))]});
      break;
    }
    case 14: {  // one selector or record.* key, from every family
      static const SpecLine kRecords[] = {
          {"record", "cdf(counter)"},
          {"record", "counter_quantiles(0.5)"},
          {"record", "hh_precision(4)"},
          {"record", "sketch_bytes"},
          {"record", "delivery_rate"},
          {"record", "avg_group_size"},
          {"record", "quantile(final_error, 0.5)"},
          {"record", "rms_at(1)"},
          {"record.max_counter", "6"},
          {"record.threshold", "2"}};
      const SpecLine& add = kRecords[rng.UniformInt(std::size(kRecords))];
      if (add.key != "record") {
        lines->push_back(add);
        break;
      }
      // Appended to the spec's selector list (the last record line wins).
      SpecLine* list = nullptr;
      for (SpecLine& line : *lines) {
        if (line.key == "record") list = &line;
      }
      if (list != nullptr) {
        list->value += ", " + add.value;
      } else {
        lines->push_back({"record", "rms, " + add.value});
      }
      break;
    }
    case 15:  // foreign-key probe: a key no parse of the cell reads
      return AppendForeignKey(lines, protocol, rng);
  }
  return "";
}

// --------------------------------------------------------------- oracle ---

struct FuzzStats {
  int generated = 0;
  int parse_rejected = 0;
  int dryrun_rejected = 0;
  int executed = 0;
  int budget_skipped = 0;
  int violations = 0;
};

/// A rejection is actionable when it carries a real diagnostic, not a bare
/// status code. All validator messages name the offending key, value or
/// registry entry, so length is a robust floor.
bool ActionableMessage(const Status& status) {
  return status.ToString().size() >= 15;
}

/// Hard ceilings on what an accepted spec may cost. The generator stays
/// far below these; a mutant can only reach them by surviving validation,
/// so a skip here is loud (counted and reported), never silent.
bool WithinExecutionBudget(const ScenarioSpec& spec) {
  const size_t sweeps =
      (spec.sweep_values.empty() ? 1 : spec.sweep_values.size()) *
      (spec.sweep2_values.empty() ? 1 : spec.sweep2_values.size());
  return spec.hosts <= 4096 && spec.rounds <= 500 && spec.trials <= 8 &&
         sweeps <= 16;
}

std::string ReproPath(const std::string& out_dir, uint64_t seed, int index) {
  return out_dir + "/fuzz_repro_" + std::to_string(seed) + "_" +
         std::to_string(index) + ".scenario";
}

/// Writes the repro file of spec `index`: `text` under a comment header
/// naming the violation. Returns false (after saying so) when it cannot.
bool WriteRepro(const std::string& path, uint64_t seed, int index,
                const std::string& text, const std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "dynagg_fuzz: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "# dynagg_fuzz repro (seed %" PRIu64 ", spec %d)\n"
               "# violation: %s\n",
               seed, index, error.c_str());
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void DumpRepro(const std::string& out_dir, uint64_t seed, int index,
               const std::string& text, const std::string& error) {
  const std::string path = ReproPath(out_dir, seed, index);
  if (WriteRepro(path, seed, index, text, error)) {
    std::fprintf(stderr, "dynagg_fuzz: repro written to %s\n", path.c_str());
  }
}

/// Whether every experiment of `text` parses and passes ValidateExperiment.
bool DryRunPasses(const std::string& text) {
  const Result<std::vector<ScenarioSpec>> specs =
      scenario::ParseScenarioFile(text, "fuzz");
  if (!specs.ok()) return false;
  for (const ScenarioSpec& spec : *specs) {
    if (!scenario::ValidateExperiment(spec).ok()) return false;
  }
  return true;
}

/// The violation of a foreign-key probe: "" when `text` fails --dry-run
/// naming `key`.
std::string ForeignKeyMissed(const std::string& text, const std::string& key) {
  const Result<std::vector<ScenarioSpec>> specs =
      scenario::ParseScenarioFile(text, "fuzz");
  Status st = specs.status();
  for (size_t e = 0; st.ok() && e < specs->size(); ++e) {
    st = scenario::ValidateExperiment((*specs)[e]);
  }
  if (st.ok()) return "foreign key " + key + " passed --dry-run";
  if (st.message().find(key) == std::string::npos) {
    return "foreign key " + key + " rejected without naming it: " +
           st.ToString();
  }
  return "";
}

/// Generates and checks `count` specs from one seed. Returns stats;
/// contract violations have already been dumped.
FuzzStats FuzzBatch(uint64_t seed, int count, const std::string& out_dir,
                    bool verbose) {
  FuzzStats stats;
  Rng rng(seed ^ 0x5fca5fca5fca5fcaull);
  std::vector<FuzzProtocol> protocols;
  for (const std::string& name : scenario::ProtocolRegistry().Names()) {
    Result<ProtocolDef> def = scenario::ProtocolRegistry().Find(name);
    if (!def.ok()) continue;
    protocols.push_back({name, *def, ReadsWorkload(*def)});
  }

  for (int i = 0; i < count; ++i) {
    ++stats.generated;
    const FuzzProtocol& protocol =
        protocols[rng.UniformInt(protocols.size())];
    std::vector<SpecLine> lines = GenerateValidSpec(protocol, i, rng);
    // Half the batch is mutated away from validity, up to two edits. A
    // foreign-key probe is checked only as the one edit of a spec that
    // passes --dry-run without it.
    const std::vector<SpecLine> unmutated = lines;
    std::string foreign;
    if (rng.Bernoulli(0.5)) {
      foreign = Mutate(&lines, protocol, rng);
      if (rng.Bernoulli(0.3)) {
        Mutate(&lines, protocol, rng);
        foreign.clear();
      }
    }
    const std::string text = RenderLines(lines);
    if (!foreign.empty() && DryRunPasses(RenderLines(unmutated))) {
      const std::string missed = ForeignKeyMissed(text, foreign);
      if (!missed.empty()) {
        ++stats.violations;
        DumpRepro(out_dir, seed, i, text, missed);
        continue;
      }
    }

    const Result<std::vector<ScenarioSpec>> specs =
        scenario::ParseScenarioFile(text, "fuzz");
    if (!specs.ok()) {
      ++stats.parse_rejected;
      if (!ActionableMessage(specs.status())) {
        ++stats.violations;
        DumpRepro(out_dir, seed, i, text,
                  "unactionable parse error: " + specs.status().ToString());
      } else if (verbose) {
        std::fprintf(stderr, "[%d] parse: %s\n", i,
                     specs.status().ToString().c_str());
      }
      continue;
    }
    for (const ScenarioSpec& spec : *specs) {
      const Status valid = scenario::ValidateExperiment(spec);
      if (!valid.ok()) {
        ++stats.dryrun_rejected;
        if (!ActionableMessage(valid)) {
          ++stats.violations;
          DumpRepro(out_dir, seed, i, text,
                    "unactionable dry-run error: " + valid.ToString());
        } else if (verbose) {
          std::fprintf(stderr, "[%d] dry-run: %s\n", i,
                       valid.ToString().c_str());
        }
        continue;
      }
      if (!WithinExecutionBudget(spec)) {
        ++stats.budget_skipped;
        std::fprintf(stderr,
                     "dynagg_fuzz: spec %d accepted but over the execution "
                     "budget; skipped (not a contract check)\n",
                     i);
        continue;
      }
      // The repro is written before the run and removed once the run
      // passes, so a spec that aborts the process (an internal check) or
      // hangs until a timeout kills it still leaves its repro behind.
      const std::string repro = ReproPath(out_dir, seed, i);
      WriteRepro(repro, seed, i, text,
                 "dry-run accepted; execution did not return (aborted or "
                 "hung)");
      const Result<std::vector<scenario::ResultTable>> tables =
          scenario::RunExperiment(spec, /*threads=*/2);
      if (!tables.ok()) {
        ++stats.violations;
        DumpRepro(out_dir, seed, i, text,
                  "dry-run accepted but execution failed: " +
                      tables.status().ToString());
      } else {
        std::remove(repro.c_str());
        ++stats.executed;
        if (verbose) std::fprintf(stderr, "[%d] executed clean\n", i);
      }
    }
  }
  return stats;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dynagg_fuzz [--seed=S] [--count=N] [--out-dir=DIR] "
               "[--verbose]\n"
               "       dynagg_fuzz --seed-corpus [--out-dir=DIR]\n");
  return 2;
}

int Run(int argc, char** argv) {
  uint64_t seed = 1;
  bool seed_set = false;
  int count = 100;
  bool seed_corpus = false;
  bool verbose = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      const Result<int64_t> v = scenario::ParseInt64(arg.substr(7));
      if (!v.ok()) {
        std::fprintf(stderr, "dynagg_fuzz: bad --seed value\n");
        return 2;
      }
      seed = static_cast<uint64_t>(*v);
      seed_set = true;
    } else if (arg.rfind("--count=", 0) == 0) {
      const Result<int64_t> v = scenario::ParseInt64(arg.substr(8));
      if (!v.ok() || *v < 1) {
        std::fprintf(stderr, "dynagg_fuzz: bad --count value\n");
        return 2;
      }
      count = static_cast<int>(*v);
    } else if (arg == "--seed-corpus") {
      seed_corpus = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(10);
      if (out_dir.empty()) {
        std::fprintf(stderr, "dynagg_fuzz: --out-dir needs a path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "dynagg_fuzz: unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }

  FuzzStats total;
  const auto accumulate = [&total](const FuzzStats& s) {
    total.generated += s.generated;
    total.parse_rejected += s.parse_rejected;
    total.dryrun_rejected += s.dryrun_rejected;
    total.executed += s.executed;
    total.budget_skipped += s.budget_skipped;
    total.violations += s.violations;
  };
  if (seed_corpus) {
    // The fixed CI corpus: ten pinned seeds x 50 specs = 500 specs that
    // replay identically forever, independent of --seed.
    for (uint64_t s = 1; s <= 10; ++s) {
      accumulate(FuzzBatch(s, 50, out_dir, verbose));
    }
    if (seed_set) {
      // A rolling batch on top when a seed was passed (CI passes the run
      // id so every pipeline also explores fresh grammar corners).
      accumulate(FuzzBatch(seed, 50, out_dir, verbose));
    }
  } else {
    accumulate(FuzzBatch(seed, count, out_dir, verbose));
  }

  std::printf(
      "dynagg_fuzz: %d specs: %d parse-rejected, %d dry-run-rejected, "
      "%d executed clean, %d over budget, %d contract violations\n",
      total.generated, total.parse_rejected, total.dryrun_rejected,
      total.executed, total.budget_skipped, total.violations);
  return total.violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dynagg

int main(int argc, char** argv) { return dynagg::Run(argc, argv); }
