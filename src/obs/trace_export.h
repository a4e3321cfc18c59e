// Chrome trace-event export for profiled runs.
//
// Renders the span streams collected in profile mode as a Chrome
// trace-event JSON object ({"traceEvents": [...]}) loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. The mapping:
//
//   process (pid)   one per profiled experiment, named after it
//   thread (tid)    one per executor worker; every span of a unit lands on
//                   the worker that ran the unit
//   complete event  one "ph": "X" event per closed span — trial, round,
//                   and kernel-phase spans nest by time containment, so a
//                   unit renders as a trial bar over round bars over
//                   plan/apply/record bars (a flamegraph)
//
// Timestamps are microseconds relative to the earliest span across all
// experiments, so profiles start at t = 0 regardless of process uptime.

#ifndef DYNAGG_OBS_TRACE_EXPORT_H_
#define DYNAGG_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace dynagg {
namespace obs {

/// One profiled experiment: its display name and the per-unit telemetry
/// (each unit carries the worker that ran it and its span stream).
struct ProcessProfile {
  std::string name;
  std::vector<TrialTelemetry> units;
};

/// Renders `processes` as Chrome trace-event JSON. Units without span
/// events contribute nothing; an all-empty input still renders a valid
/// (empty) trace document.
std::string RenderChromeTrace(const std::vector<ProcessProfile>& processes);

}  // namespace obs
}  // namespace dynagg

#endif  // DYNAGG_OBS_TRACE_EXPORT_H_
