// schedule_io.h — text interchange for schedules.
//
// A detection workflow spans tools and years: the suspect's recovered
// schedule (from FSM extraction) arrives as data, not as an in-process
// object.  Format, one line per scheduled operation, keyed by node name
// so it survives graph re-serialization:
//
//   schedule <graph-name>
//   at <node-name> <start-step>
#pragma once

#include <string>
#include <string_view>

#include "cdfg/graph.h"
#include "io/parse_result.h"
#include "io/text.h"
#include "sched/schedule.h"

namespace lwm::sched {

[[nodiscard]] std::string schedule_to_text(const cdfg::Graph& g, const Schedule& s);

/// Parses against `g` (names must resolve) from text or a stream (see
/// io::LineCursor).  Syntax errors, unknown or twice-scheduled nodes,
/// negative steps, trailing garbage and cursor failures come back as a
/// located Diagnostic.
[[nodiscard]] io::ParseResult<Schedule> parse_schedule(
    const cdfg::Graph& g, io::LineCursor lines,
    std::string_view source_name = "<schedule>");

}  // namespace lwm::sched
