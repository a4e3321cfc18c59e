#include "scenario/spec.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace dynagg {
namespace scenario {

namespace {

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && (s[b] == ' ' || s[b] == '\t')) ++b;
  size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' ||
                   s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

std::string Quoted(std::string_view s) {
  return "'" + std::string(s) + "'";
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string s(Trim(text));
  if (s.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 0);
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: " + Quoted(s));
  }
  if (end != s.c_str() + s.size()) {
    return Status::InvalidArgument("not an integer: " + Quoted(s));
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view text) {
  const std::string s(Trim(text));
  if (s.empty()) return Status::InvalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return Status::InvalidArgument("not a number: " + Quoted(s));
  }
  return v;
}

Result<bool> ParseBool(std::string_view text) {
  const std::string s(Trim(text));
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  return Status::InvalidArgument("not a boolean: " + Quoted(s));
}

SimTime GossipPeriod(const ScenarioSpec& spec) {
  return FromSeconds(spec.gossip_period > 0 ? spec.gossip_period : 30.0);
}

Status CheckTickSeconds(const std::string& key, double seconds) {
  if (std::isnan(seconds)) {
    return Status::InvalidArgument(key +
                                   " must be a number of seconds, got nan");
  }
  char value[32];
  std::snprintf(value, sizeof(value), "%g", seconds);
  // FromSeconds casts seconds * 1e6 to int64: defined below 2^63 only.
  if (!(std::fabs(seconds) * 1e6 < 0x1p63)) {
    return Status::InvalidArgument(
        key + " = " + value +
        " s overflows simulated time (64-bit microseconds, at most about "
        "9.2e12 s)");
  }
  if (seconds > 0 && FromSeconds(seconds) == 0) {
    return Status::InvalidArgument(
        key + " = " + value +
        " s is below the 1 microsecond tick of simulated time");
  }
  return Status::OK();
}

Result<std::string> ScenarioSpec::ParamString(const std::string& key,
                                              std::string def) const {
  const auto it = params.find(key);
  return it == params.end() ? std::move(def) : it->second;
}

namespace {

Status OutOfRange(const std::string& key, std::string_view text,
                  const std::string& range, const std::string& sentinel) {
  return Status::InvalidArgument(
      key + " = " + std::string(Trim(text)) + " is outside " + range +
      (sentinel.empty() ? "" : " (or " + sentinel + ", the default)"));
}

}  // namespace

Result<int64_t> ParseIntIn(const std::string& key, std::string_view text,
                           int64_t def, int64_t lo, int64_t hi) {
  Result<int64_t> v = ParseInt64(text);
  if (!v.ok()) {
    return Status::InvalidArgument(key + ": " + v.status().message());
  }
  if (*v == def || (*v >= lo && *v <= hi)) return v;
  return OutOfRange(
      key, text, "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]",
      def >= lo && def <= hi ? "" : std::to_string(def));
}

Result<double> ScenarioSpec::ParamDouble(const std::string& key, double def,
                                         Bound lo, Bound hi) const {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  Result<double> v = ParseDouble(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument(key + ": " + v.status().message());
  }
  // Written so NaN, which strtod accepts, fails every comparison.
  const auto in_range = [&](double x) {
    return (lo.open ? x > lo.value : x >= lo.value) &&
           (hi.open ? x < hi.value : x <= hi.value);
  };
  if (*v == def || in_range(*v)) return v;
  char range[80];
  std::snprintf(range, sizeof(range), "%c%.6g, %.6g%c", lo.open ? '(' : '[',
                lo.value, hi.value, hi.open ? ')' : ']');
  char sentinel[32] = "";
  if (!in_range(def)) std::snprintf(sentinel, sizeof(sentinel), "%g", def);
  return OutOfRange(key, it->second, range, sentinel);
}

Result<bool> ScenarioSpec::ParamBool(const std::string& key, bool def) const {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  Result<bool> v = ParseBool(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument(key + ": " + v.status().message());
  }
  return v;
}

Status ValidateMetricList(const std::vector<MetricSpec>& metrics) {
  if (metrics.empty()) {
    return Status::InvalidArgument("record list is empty");
  }
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (metrics[i].name.empty()) {
      return Status::InvalidArgument("metric " +
                                     Quoted(metrics[i].ToString()) +
                                     " has an empty name");
    }
    for (size_t j = i + 1; j < metrics.size(); ++j) {
      if (metrics[i] == metrics[j]) {
        return Status::InvalidArgument(
            "metric " + Quoted(metrics[i].ToString()) + " is listed twice");
      }
    }
  }
  return Status::OK();
}

Status ValidateAggregateList(const std::vector<std::string>& aggregates) {
  for (const std::string& agg : aggregates) {
    if (agg != "mean" && agg != "stddev" && agg != "min" && agg != "max") {
      return Status::InvalidArgument(
          "aggregate " + Quoted(agg) +
          " is not supported (mean, stddev, min, max)");
    }
  }
  for (size_t i = 0; i < aggregates.size(); ++i) {
    for (size_t j = i + 1; j < aggregates.size(); ++j) {
      if (aggregates[i] == aggregates[j]) {
        return Status::InvalidArgument("aggregate " + Quoted(aggregates[i]) +
                                       " is listed twice");
      }
    }
  }
  return Status::OK();
}

Status ScenarioSpec::CheckParams(
    const std::string& prefix,
    const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : params) {
    if (key.rfind(prefix, 0) != 0) continue;
    const std::string suffix = key.substr(prefix.size());
    bool ok = false;
    for (const auto& a : allowed) {
      if (suffix == a) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      std::string msg = "unknown parameter " + Quoted(key) + " (allowed: ";
      for (size_t i = 0; i < allowed.size(); ++i) {
        if (i) msg += ", ";
        msg += prefix + allowed[i];
      }
      msg += ")";
      return Status::InvalidArgument(msg);
    }
  }
  return Status::OK();
}

Result<std::string> ParamReader::String(const std::string& key,
                                        std::string def) {
  Note(key);
  return spec_.ParamString(key, std::move(def));
}

Result<bool> ParamReader::Bool(const std::string& key, bool def) {
  Note(key);
  return spec_.ParamBool(key, def);
}

Result<double> ParamReader::Double(const std::string& key, double def,
                                   Bound lo, Bound hi) {
  Note(key);
  return spec_.ParamDouble(key, def, lo, hi);
}

void ParamReader::Note(const std::string& key) {
  if (key.rfind(prefix_, 0) != 0) return;
  const std::string suffix = key.substr(prefix_.size());
  for (const std::string& seen : read_) {
    if (seen == suffix) return;
  }
  read_.push_back(suffix);
}

namespace {

const char* const kParamPrefixes[] = {"protocol.", "env.", "failure.",
                                      "record.", "seeds.", "workload.",
                                      "net.", "churn."};

bool IsNamespacedKey(std::string_view key) {
  for (const char* prefix : kParamPrefixes) {
    if (key.rfind(prefix, 0) == 0 && key.size() > std::string(prefix).size())
      return true;
  }
  return false;
}

Status AtLine(int line, const Status& st) {
  return Status(st.ok() ? st
                        : Status::InvalidArgument(
                              "line " + std::to_string(line) + ": " +
                              st.message()));
}

/// Splits `text` on commas and trims each item; empty items are errors.
Result<std::vector<std::string>> SplitList(std::string_view text,
                                           const std::string& what) {
  std::vector<std::string> items;
  while (true) {
    const size_t comma = text.find(',');
    const std::string item(
        Trim(comma == std::string_view::npos ? text : text.substr(0, comma)));
    if (item.empty()) {
      return Status::InvalidArgument(what + " list has an empty entry");
    }
    items.push_back(item);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return items;
}

/// Parses "key: v1, v2, ..." for `sweep` / `sweep2`.
Status ParseSweepSpec(const std::string& value, const std::string& what,
                      std::string* key_out, std::vector<double>* values_out) {
  const size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(what + " must be 'key: v1, v2, ...'");
  }
  const std::string sweep_key(Trim(value.substr(0, colon)));
  if (sweep_key != "hosts" && sweep_key != "rounds" &&
      sweep_key != "intra_round_threads" && !IsNamespacedKey(sweep_key)) {
    return Status::InvalidArgument(
        what + " key " + Quoted(sweep_key) +
        " is not sweepable (use hosts, rounds, intra_round_threads, or a "
        "namespaced parameter)");
  }
  DYNAGG_ASSIGN_OR_RETURN(
      const std::vector<std::string> items,
      SplitList(std::string_view(value).substr(colon + 1), what));
  std::vector<double> values;
  for (const std::string& item : items) {
    Result<double> v = ParseDouble(item);
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  *key_out = sweep_key;
  *values_out = std::move(values);
  return Status::OK();
}

/// Splits a metric list on top-level commas only: commas inside (...) are
/// part of a selector's argument, so `quantile(final_error, 0.9)` stays one
/// item.
Result<std::vector<std::string>> SplitMetricItems(std::string_view text) {
  std::vector<std::string> items;
  size_t start = 0;
  int depth = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] == '(') ++depth;
    if (i < text.size() && text[i] == ')') {
      if (--depth < 0) {
        return Status::InvalidArgument("record list has an unmatched ')'");
      }
    }
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      const std::string item(Trim(text.substr(start, i - start)));
      if (item.empty()) {
        return Status::InvalidArgument("record list has an empty entry");
      }
      items.push_back(item);
      start = i + 1;
    }
  }
  if (depth != 0) {
    return Status::InvalidArgument("record list has an unmatched '('");
  }
  return items;
}

/// Parses the `record =` metric list: comma-separated selectors, each
/// `name` or `name(arg)`; multi-part arguments are normalized to the
/// canonical comma-separated spelling without spaces
/// (`quantile(final_error, 0.9)` -> arg "final_error,0.9") so duplicate
/// detection and selector matching are whitespace-insensitive.
Result<std::vector<MetricSpec>> ParseMetricList(const std::string& value) {
  DYNAGG_ASSIGN_OR_RETURN(const std::vector<std::string> items,
                          SplitMetricItems(value));
  std::vector<MetricSpec> metrics;
  for (const std::string& item : items) {
    MetricSpec m;
    const size_t open = item.find('(');
    if (open == std::string::npos) {
      m.name = item;
    } else {
      if (item.back() != ')') {
        return Status::InvalidArgument("metric " + Quoted(item) +
                                       " has an unterminated argument");
      }
      m.name = std::string(Trim(std::string_view(item).substr(0, open)));
      const std::string_view raw =
          std::string_view(item).substr(open + 1, item.size() - open - 2);
      // Normalize: trim each comma-separated argument part.
      size_t part_start = 0;
      for (size_t i = 0; i <= raw.size(); ++i) {
        if (i == raw.size() || raw[i] == ',') {
          const std::string part(Trim(raw.substr(part_start, i - part_start)));
          if (!m.arg.empty()) m.arg += ",";
          m.arg += part;
          part_start = i + 1;
        }
      }
      if (m.arg.empty()) {
        return Status::InvalidArgument("metric " + Quoted(item) +
                                       " has an empty argument");
      }
    }
    metrics.push_back(std::move(m));
  }
  DYNAGG_RETURN_IF_ERROR(ValidateMetricList(metrics));
  return metrics;
}

/// Parses the `aggregate =` statistic list.
Result<std::vector<std::string>> ParseAggregateList(const std::string& value) {
  DYNAGG_ASSIGN_OR_RETURN(const std::vector<std::string> items,
                          SplitList(value, "aggregate"));
  DYNAGG_RETURN_IF_ERROR(ValidateAggregateList(items));
  return items;
}

/// Applies one key = value assignment to `spec`.
Status ApplyKey(ScenarioSpec* spec, const std::string& key,
                const std::string& value, int line) {
  if (IsNamespacedKey(key)) {
    spec->params[key] = value;
    return Status::OK();
  }
  if (key == "name") {
    spec->name = value;
  } else if (key == "protocol") {
    spec->protocol = value;
  } else if (key == "environment") {
    spec->environment = value;
  } else if (key == "driver") {
    spec->driver = value;
  } else if (key == "gossip_period" || key == "sample_period") {
    Result<double> v = ParseDouble(value);
    if (!v.ok()) return AtLine(line, v.status());
    const Status tick = CheckTickSeconds(key, *v);
    if (!tick.ok()) return AtLine(line, tick);
    if (*v <= 0) {
      return AtLine(line, Status::InvalidArgument(
                              key + " must be > 0 (seconds)"));
    }
    (key == "gossip_period" ? spec->gossip_period : spec->sample_period) = *v;
  } else if (key == "telemetry") {
    if (value != "off" && value != "summary" && value != "profile") {
      return AtLine(line, Status::InvalidArgument(
                              "telemetry must be off, summary or profile, "
                              "got " + Quoted(value)));
    }
    spec->telemetry = value;
  } else if (key == "output") {
    spec->output = value;
  } else if (key == "format") {
    if (value != "csv" && value != "jsonl") {
      return AtLine(line, Status::InvalidArgument(
                              "format must be csv or jsonl, got " +
                              Quoted(value)));
    }
    spec->format = value;
  } else if (key == "hosts" || key == "rounds" || key == "trials" ||
             key == "intra_round_threads") {
    // hosts = 0 derives the size from the environment.
    const int64_t lo = key == "hosts" ? 0 : 1;
    Result<int64_t> v = ParseIntIn(key, value, lo, lo, kIntMax);
    if (!v.ok()) return AtLine(line, v.status());
    const int n = static_cast<int>(*v);
    if (key == "hosts") spec->hosts = n;
    if (key == "rounds") {
      spec->rounds = n;
      spec->rounds_set = true;
    }
    if (key == "trials") spec->trials = n;
    if (key == "intra_round_threads") spec->intra_round_threads = n;
  } else if (key == "seed") {
    Result<int64_t> v = ParseInt64(value);
    if (!v.ok()) return AtLine(line, v.status());
    spec->seed = static_cast<uint64_t>(*v);
  } else if (key == "sweep" || key == "sweep2") {
    // "key: v1, v2, ..." — swept over one full run per value.
    std::string* sweep_key =
        key == "sweep" ? &spec->sweep_key : &spec->sweep2_key;
    std::vector<double>* sweep_values =
        key == "sweep" ? &spec->sweep_values : &spec->sweep2_values;
    const Status st = ParseSweepSpec(value, key, sweep_key, sweep_values);
    if (!st.ok()) return AtLine(line, st);
  } else if (key == "record") {
    Result<std::vector<MetricSpec>> metrics = ParseMetricList(value);
    if (!metrics.ok()) return AtLine(line, metrics.status());
    spec->metrics = std::move(*metrics);
  } else if (key == "aggregate") {
    Result<std::vector<std::string>> aggs = ParseAggregateList(value);
    if (!aggs.ok()) return AtLine(line, aggs.status());
    spec->aggregates = std::move(*aggs);
  } else {
    return AtLine(line, Status::InvalidArgument(
                            "unknown key " + Quoted(key) +
                            " (namespaced parameters must start with "
                            "protocol./env./failure./record./seeds./"
                            "workload./net./churn.)"));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ScenarioSpec>> ParseScenarioFile(
    std::string_view text, const std::string& default_name) {
  ScenarioSpec globals;
  globals.name = default_name;
  std::vector<std::pair<std::string, ScenarioSpec>> sections;
  bool in_section = false;

  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return AtLine(line_no,
                      Status::InvalidArgument("unterminated [section]"));
      }
      const std::string section(Trim(line.substr(1, line.size() - 2)));
      if (section.empty()) {
        return AtLine(line_no,
                      Status::InvalidArgument("empty section name"));
      }
      // Sections inherit every global default set so far.
      sections.emplace_back(section, globals);
      in_section = true;
      continue;
    }

    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return AtLine(line_no, Status::InvalidArgument(
                                 "expected 'key = value', got " +
                                 Quoted(line)));
    }
    const std::string key(Trim(line.substr(0, eq)));
    const std::string value(Trim(line.substr(eq + 1)));
    if (key.empty()) {
      return AtLine(line_no, Status::InvalidArgument("empty key"));
    }
    ScenarioSpec* target = in_section ? &sections.back().second : &globals;
    DYNAGG_RETURN_IF_ERROR(ApplyKey(target, key, value, line_no));
  }

  std::vector<ScenarioSpec> specs;
  if (sections.empty()) {
    specs.push_back(std::move(globals));
  } else {
    for (auto& [section, spec] : sections) {
      spec.name = spec.name + "/" + section;
      specs.push_back(std::move(spec));
    }
  }
  // Cross-field rules (sweep2 requires sweep, distinct keys, ...) live in
  // ValidateExperiment — the one preflight every execution path runs — so
  // they are not duplicated here.
  for (const ScenarioSpec& spec : specs) {
    if (spec.protocol.empty()) {
      return Status::InvalidArgument("experiment '" + spec.name +
                                     "': missing required key 'protocol'");
    }
  }
  return specs;
}

}  // namespace scenario
}  // namespace dynagg
