// tm_constraints.h — constraint encoding for template matching
// (paper Fig. 5).
//
// The watermark *forces* Z signature-chosen node-to-module matchings to
// appear in the final template-matching solution.  Each chosen matching
// is isolated by promoting the variables on its boundary to pseudo-
// primary outputs (PPOs): a PPO value must stay visible, so no other
// multi-operation module can swallow the neighborhood, and the enforced
// matching survives the optimization pass untouched.  T is the whole
// CDFG, the paper's Table II configuration.
#pragma once

#include <optional>
#include <unordered_set>
#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "tmatch/cover.h"
#include "tmatch/matcher.h"

namespace lwm::wm {

struct TmWmOptions {
  int z = 3;              ///< enforced matchings (Z); the tradeoff knob
  double epsilon = 0.25;  ///< near-critical exclusion margin
  /// Available control steps; the near-critical exclusion keeps nodes
  /// with laxity <= budget * (1 - epsilon).  -1 means "critical path"
  /// (the tightest schedule, Fig. 5's literal C).  Table II's second row
  /// per design doubles this.
  int budget = -1;
  static constexpr const char* kSelectTag = "lwm/tm-match";
};

/// The designer's record of a template-matching watermark.
struct TmWatermark {
  TmWmOptions options;
  std::vector<tmatch::Match> enforced;     ///< the Z forced matchings
  std::unordered_set<cdfg::NodeId> ppos;   ///< promoted boundary variables
};

/// Runs the Fig. 5 encoding loop on `g`.  Returns nullopt when fewer
/// enforceable matchings exist than Z requires and none could be chosen.
[[nodiscard]] std::optional<TmWatermark> plan_tm_watermark(
    const cdfg::Graph& g, const tmatch::TemplateLibrary& lib,
    const crypto::Signature& sig, const TmWmOptions& opts);

/// Convenience: CoverOptions carrying the watermark into greedy_cover().
[[nodiscard]] tmatch::CoverOptions cover_options(const TmWatermark& wm);

}  // namespace lwm::wm
