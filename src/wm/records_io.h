// records_io.h — persistence for watermark records.
//
// The designer's records are the other half of the proof of authorship
// (the first half is the secret signature): they must survive years
// between embedding and a dispute.  This module defines a line-oriented
// text archive for scheduling and register records, mirroring the CDFG
// interchange format:
//
//   lwm-records v1
//   sched tau=<int> keep=<num>/<den> pairs=<n>
//   pos <src> <dst>           (n lines)
//   ops <id> <id> ...         (structural fingerprint; functional ids,
//                              each in [1, cdfg::kNumOpKinds])
//   reg tau=<int> keep=<num>/<den> m=<int> pairs=<n>
//   ...
//
// Round-trips exactly; parsing errors carry line numbers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "io/parse_result.h"
#include "io/text.h"
#include "wm/detector.h"
#include "wm/reg_constraints.h"

namespace lwm::wm {

/// A designer's archive: every record for one protected design.
struct RecordArchive {
  std::vector<SchedRecord> sched;
  std::vector<RegRecord> reg;
};

[[nodiscard]] std::string to_text(const RecordArchive& archive);

/// Parses from text or a stream (see io::LineCursor).  Malformed fields
/// (non-numeric tau, empty keep denominator, keep_den == 0, out-of-range
/// values, a negative position, an op id naming no op kind), bad
/// structure (a second ops line in a record), trailing garbage and
/// cursor failures all come back as a located Diagnostic.
[[nodiscard]] io::ParseResult<RecordArchive> parse_records(
    io::LineCursor lines, std::string_view source_name = "<records>");

}  // namespace lwm::wm
