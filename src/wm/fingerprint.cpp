#include "wm/fingerprint.h"

#include <algorithm>

#include "sched/list_sched.h"

namespace lwm::wm {

FingerprintedCopy fingerprint_copy(const cdfg::Graph& original,
                                   const crypto::Signature& vendor,
                                   const std::string& recipient,
                                   const SchedWmOptions& opts) {
  FingerprintedCopy copy;
  copy.recipient = recipient;
  copy.design = original;

  const std::vector<SchedWatermark> own =
      embed_local_watermarks(copy.design, vendor, kOwnershipMarks, opts);
  for (const SchedWatermark& m : own) {
    copy.ownership_records.push_back(SchedRecord::from(m, copy.design));
  }

  const crypto::Signature recipient_sig = vendor.derive(recipient);
  const std::vector<SchedWatermark> marks =
      embed_local_watermarks(copy.design, recipient_sig, kCopyMarks, opts);
  for (const SchedWatermark& m : marks) {
    copy.copy_records.push_back(SchedRecord::from(m, copy.design));
  }

  copy.schedule = sched::list_schedule(copy.design);
  copy.design.strip_temporal_edges();
  return copy;
}

const LeakScore* LeakReport::likely_leaker() const {
  const LeakScore* best = nullptr;
  for (const LeakScore& s : scores) {
    if (s.marks_found == 0) continue;
    if (best == nullptr || s.ratio() > best->ratio()) best = &s;
  }
  return best;
}

LeakReport identify_leak(const cdfg::Graph& suspect,
                         const sched::Schedule& schedule,
                         const crypto::Signature& vendor,
                         const std::vector<FingerprintedCopy>& copies) {
  const auto detected = [](const SchedDetectionReport& r) {
    return r.detected();
  };
  LeakReport report;
  // Ownership: vendor-keyed marks are shared across copies; checking
  // any archive suffices, so scan all of them in one batch.
  std::vector<SchedRecord> ownership;
  for (const FingerprintedCopy& copy : copies) {
    ownership.insert(ownership.end(), copy.ownership_records.begin(),
                     copy.ownership_records.end());
  }
  report.ownership_established = std::ranges::any_of(
      detect_sched_watermarks(suspect, schedule, vendor, ownership), detected);
  for (const FingerprintedCopy& copy : copies) {
    LeakScore score;
    score.recipient = copy.recipient;
    score.marks_total = static_cast<int>(copy.copy_records.size());
    score.marks_found = static_cast<int>(std::ranges::count_if(
        detect_sched_watermarks(suspect, schedule,
                                vendor.derive(copy.recipient),
                                copy.copy_records),
        detected));
    report.scores.push_back(std::move(score));
  }
  return report;
}

}  // namespace lwm::wm
