// protocol.h — end-to-end local-watermarking flows (paper Fig. 1).
//
// Ties the pieces together:
//   original spec -> [preprocess: encode constraints from signature]
//                 -> [off-the-shelf synthesis honoring all constraints]
//                 -> [strip the added constraints from the spec]
//                 -> optimized solution satisfying original + hidden
//                    constraints, plus the designer's watermark records.
#pragma once

#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "sched/list_sched.h"
#include "tmatch/cover.h"
#include "vliw/vliw_sched.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"
#include "wm/tm_constraints.h"

namespace lwm::wm {

struct SchedProtocolConfig {
  SchedWmOptions wm;
  int watermark_count = 1;  ///< number of local watermarks to embed
  sched::ResourceSet resources = sched::ResourceSet::unlimited();
};

struct SchedProtocolResult {
  cdfg::Graph solution;      ///< the stripped, schedulable specification
  std::vector<SchedWatermark> marks;
  sched::Schedule schedule;  ///< watermark-honoring schedule
  sched::Schedule baseline;  ///< unconstrained schedule of the original
  PcEstimate pc;             ///< window-model estimate across all marks
  int latency_marked = 0;
  int latency_baseline = 0;

  [[nodiscard]] double latency_overhead() const {
    return latency_baseline == 0
               ? 0.0
               : static_cast<double>(latency_marked - latency_baseline) /
                     latency_baseline;
  }
};

/// Runs the full scheduling-watermark protocol on a copy of `original`.
[[nodiscard]] SchedProtocolResult run_sched_protocol(
    const cdfg::Graph& original, const crypto::Signature& sig,
    const SchedProtocolConfig& config);

/// Table I variant: the watermark is materialized as unit operations in
/// a compiled instruction stream and measured on the VLIW machine.
struct VliwProtocolResult {
  std::vector<SchedWatermark> marks;
  int cycles_marked = 0;
  int cycles_baseline = 0;
  PcEstimate pc;

  [[nodiscard]] double cycle_overhead() const {
    return cycles_baseline == 0
               ? 0.0
               : static_cast<double>(cycles_marked - cycles_baseline) /
                     cycles_baseline;
  }
};
[[nodiscard]] VliwProtocolResult run_vliw_protocol(const cdfg::Graph& original,
                                                   const crypto::Signature& sig,
                                                   const SchedWmOptions& wm_opts,
                                                   int watermark_count,
                                                   const vliw::Machine& machine);

struct TmProtocolConfig {
  TmWmOptions wm;
  int budget_steps = -1;  ///< control-step budget; -1 = critical path
};

struct TmProtocolResult {
  TmWatermark watermark;
  tmatch::Cover cover_marked;
  tmatch::Cover cover_baseline;
  tmatch::ModuleAllocation alloc_marked;
  tmatch::ModuleAllocation alloc_baseline;
  PcEstimate pc;
};
/// Runs the template-matching protocol; throws std::runtime_error if no
/// watermark can be planned on this design.
[[nodiscard]] TmProtocolResult run_tm_protocol(const cdfg::Graph& original,
                                               const tmatch::TemplateLibrary& lib,
                                               const crypto::Signature& sig,
                                               const TmProtocolConfig& config);

}  // namespace lwm::wm
