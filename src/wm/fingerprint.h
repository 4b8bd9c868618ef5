// fingerprint.h — per-recipient fingerprinting on top of local watermarks.
//
// Watermarking proves *who designed* a core; fingerprinting additionally
// identifies *which licensed copy* leaked (the direction of Lach et
// al.'s FPGA fingerprinting, cited by the paper as [4]).  Every shipped
// copy carries two layers of local watermarks:
//   * ownership marks keyed by the vendor signature (identical in every
//     copy — they prove authorship even if the leak source is unknown);
//   * copy marks keyed by a per-recipient signature derived from the
//     vendor key (crypto::Signature::derive), distinct per copy.
// Given a suspect design, the vendor re-derives each recipient's
// signature and scores the copy marks: the leaking recipient's marks
// verify, everyone else's do not.
#pragma once

#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "sched/schedule.h"
#include "wm/detector.h"
#include "wm/sched_constraints.h"

namespace lwm::wm {

/// Watermarks per shipped copy: vendor-keyed ownership marks and
/// recipient-keyed copy marks.
inline constexpr int kOwnershipMarks = 2;
inline constexpr int kCopyMarks = 3;

/// One shipped, fingerprinted copy: the watermarked graph plus the
/// vendor's archive entries.
struct FingerprintedCopy {
  std::string recipient;
  cdfg::Graph design;             ///< stripped, ready to ship
  sched::Schedule schedule;       ///< the copy's synthesized schedule
  std::vector<SchedRecord> ownership_records;
  std::vector<SchedRecord> copy_records;
};

/// Produces the fingerprinted copy for `recipient`: embeds
/// kOwnershipMarks ownership and kCopyMarks copy marks planned with
/// `opts`, schedules (list scheduler), strips the constraints.
[[nodiscard]] FingerprintedCopy fingerprint_copy(const cdfg::Graph& original,
                                                 const crypto::Signature& vendor,
                                                 const std::string& recipient,
                                                 const SchedWmOptions& opts);

/// Per-recipient evidence when auditing a suspect design.
struct LeakScore {
  std::string recipient;
  int marks_found = 0;
  int marks_total = 0;

  [[nodiscard]] double ratio() const {
    return marks_total == 0 ? 0.0
                            : static_cast<double>(marks_found) / marks_total;
  }
};

struct LeakReport {
  bool ownership_established = false;  ///< any vendor mark verified
  std::vector<LeakScore> scores;       ///< one per candidate recipient

  /// Recipient with the highest ratio, if any mark of theirs verified.
  [[nodiscard]] const LeakScore* likely_leaker() const;
};

/// Audits `suspect` against every candidate recipient.  `records` holds
/// the archive for each candidate (same order as `recipients`); the
/// vendor's own ownership records may come from any copy (they are
/// identical across copies by construction).
[[nodiscard]] LeakReport identify_leak(
    const cdfg::Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& vendor,
    const std::vector<FingerprintedCopy>& copies);

}  // namespace lwm::wm
