// export.h — serializers for the obs registry: human summary, JSON
// registry dump (merged into every bench's `--json` artifact), and a
// Chrome trace_event file loadable in chrome://tracing or Perfetto.
//
// Only declared when LWM_OBS_ENABLED; including this header in an
// LWM_OBS=OFF build is harmless and contributes nothing to the binary.
#pragma once

#include "obs/obs.h"

#if LWM_OBS_ENABLED

#include <iosfwd>
#include <string>
#include <vector>

namespace lwm::obs {

/// One JSON object: {"counters":{...},"histograms":{...},"spans":{...}}.
/// Histograms report count/sum/mean/max plus the non-empty log2 buckets;
/// spans report count and total milliseconds.
[[nodiscard]] std::string registry_json();

/// Serializes `events` in Chrome trace_event JSON object format:
/// complete ("X") events per thread plus flow arrows ("s"/"f") linking a
/// span to a parent recorded on a different thread (a task whose parent
/// span was open where it was submitted).  Deterministic for a fixed
/// event list — the exporter golden test locks this format.
void write_trace_events(std::ostream& os, const std::vector<TraceEvent>& events);

/// Snapshots the live registry and writes it via write_trace_events.
/// Returns false (with a warning on stderr) when the file cannot be
/// opened.
bool write_chrome_trace(const std::string& path);

}  // namespace lwm::obs

#endif  // LWM_OBS_ENABLED
