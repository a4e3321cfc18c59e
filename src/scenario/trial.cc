#include "scenario/trial.h"

#include <iterator>
#include <utility>

#include "common/macros.h"

namespace dynagg {
namespace scenario {

void Recorder::AddScalar(const std::string& name, double value) {
  for (const ScalarRecord& s : batch_.scalars) {
    DYNAGG_CHECK(s.name != name);  // runner bug: duplicate scalar name
  }
  batch_.scalars.push_back({name, value});
}

void Recorder::AddQuantile(const std::string& name, double q, double value) {
  for (const QuantileRecord& r : batch_.quantiles) {
    // Runner bug: duplicate (metric, q) pair.
    DYNAGG_CHECK(r.name != name || r.q != q);
  }
  batch_.quantiles.push_back({name, q, value});
}

SeriesRecord* Recorder::MutableKeyedSeries(const std::string& x_name,
                                           const std::string& name,
                                           const std::string& key_name,
                                           double key) {
  for (SeriesRecord& s : batch_.series) {
    // One trial must not mix keyed and unkeyed series (or two key
    // columns): the assembled table has a single optional key column.
    DYNAGG_CHECK(s.key_name == key_name);
    if (s.name == name && (key_name.empty() || s.key == key)) {
      DYNAGG_CHECK(s.x_name == x_name);
      return &s;
    }
  }
  SeriesRecord series;
  series.x_name = x_name;
  series.name = name;
  series.key_name = key_name;
  series.key = key_name.empty() ? 0.0 : key;
  batch_.series.push_back(std::move(series));
  return &batch_.series.back();
}

SeriesRecord* Recorder::MutableSeries(const std::string& x_name,
                                      const std::string& name) {
  return MutableKeyedSeries(x_name, name, /*key_name=*/"", 0.0);
}

void Recorder::AddSeriesPoint(const std::string& x_name,
                              const std::string& name, double x,
                              double value) {
  MutableSeries(x_name, name)->points.push_back({x, value});
}

void Recorder::AddKeyedSeriesPoint(const std::string& x_name,
                                   const std::string& name,
                                   const std::string& key_name, double key,
                                   double x, double value) {
  MutableKeyedSeries(x_name, name, key_name, key)->points.push_back(
      {x, value});
}

HistogramRecord* Recorder::MutableHistogram(const std::string& label,
                                            const std::string& key_name,
                                            const std::string& bucket_name,
                                            const std::string& value_name,
                                            bool cumulative,
                                            int64_t min_key_total) {
  for (HistogramRecord& h : batch_.histograms) {
    if (h.label == label) {
      DYNAGG_CHECK(h.key_name == key_name && h.bucket_name == bucket_name &&
                   h.value_name == value_name &&
                   h.cumulative == cumulative &&
                   h.min_key_total == min_key_total);
      return &h;
    }
  }
  HistogramRecord hist;
  hist.label = label;
  hist.key_name = key_name;
  hist.bucket_name = bucket_name;
  hist.value_name = value_name;
  hist.cumulative = cumulative;
  hist.min_key_total = min_key_total;
  batch_.histograms.push_back(std::move(hist));
  return &batch_.histograms.back();
}

void Recorder::SetBandwidth(double msgs_per_host_round,
                            double bytes_per_host_round, double state_bytes) {
  DYNAGG_CHECK(!batch_.has_bandwidth);
  batch_.has_bandwidth = true;
  batch_.bandwidth = {msgs_per_host_round, bytes_per_host_round, state_bytes};
}

const std::vector<RecordTypeInfo>& RecordTypeCatalog() {
  static const std::vector<RecordTypeInfo> types = {
      {"scalar", "one named value per trial (rms_tail_mean, final_rms, "
                 "hh_precision(k), sketch_bytes, ...)"},
      {"quantile", "per-trial quantile of a per-host sample distribution "
                   "(quantile(final_error, q))"},
      {"series", "per-round (x, value) curves, optionally keyed "
                 "(rms, convergence)"},
      {"histogram", "bucketed distributions / CDFs "
                    "(cdf(final_error), cdf(counter))"},
      {"bandwidth", "measured per-host per-round traffic plus state bytes "
                    "(bandwidth)"},
  };
  return types;
}

std::string DescribeCapabilities(Capabilities caps) {
  // Indexed by Capability.
  static constexpr const char* kNames[] = {
      "trace", "threads", "async", "join", "gossip_bytes", "metered",
      "value-backed"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(Capability::kValueBacked) + 1);
  std::string out;
  for (size_t i = 0; i < std::size(kNames); ++i) {
    if (!caps.Has(static_cast<Capability>(i))) continue;
    if (!out.empty()) out += ", ";
    out += kNames[i];
  }
  return out.empty() ? "—" : out;
}

namespace internal {
// Defined in scenario/protocols.cc, scenario/environments.cc,
// scenario/drivers.cc and stream/stream_protocols.cc.
void RegisterBuiltinProtocols(Registry<ProtocolDef>& registry);
void RegisterBuiltinEnvironments(Registry<EnvironmentDef>& registry);
void RegisterBuiltinDrivers(Registry<DriverDef>& registry);
void RegisterStreamProtocols(Registry<ProtocolDef>& registry);
}  // namespace internal

Registry<ProtocolDef>& ProtocolRegistry() {
  static Registry<ProtocolDef>* registry = [] {
    auto* r = new Registry<ProtocolDef>("protocol");
    internal::RegisterBuiltinProtocols(*r);
    internal::RegisterStreamProtocols(*r);
    return r;
  }();
  return *registry;
}

Registry<EnvironmentDef>& EnvironmentRegistry() {
  static Registry<EnvironmentDef>* registry = [] {
    auto* r = new Registry<EnvironmentDef>("environment");
    internal::RegisterBuiltinEnvironments(*r);
    return r;
  }();
  return *registry;
}

Registry<DriverDef>& DriverRegistry() {
  static Registry<DriverDef>* registry = [] {
    auto* r = new Registry<DriverDef>("driver");
    internal::RegisterBuiltinDrivers(*r);
    return r;
  }();
  return *registry;
}

Result<EnvHandle> MakeEnvironment(const TrialContext& ctx) {
  DYNAGG_ASSIGN_OR_RETURN(const EnvironmentDef def,
                          EnvironmentRegistry().Find(ctx.spec->environment));
  DYNAGG_ASSIGN_OR_RETURN(EnvHandle handle, def.make(ctx));
  if (ctx.spec->hosts > 0 &&
      ctx.spec->hosts != handle.env->num_hosts()) {
    return Status::InvalidArgument(
        "hosts = " + std::to_string(ctx.spec->hosts) +
        " does not match the environment's intrinsic size " +
        std::to_string(handle.env->num_hosts()));
  }
  return handle;
}

}  // namespace scenario
}  // namespace dynagg
