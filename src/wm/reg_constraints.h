// reg_constraints.h — local watermarking of register binding.
//
// The third behavioral-synthesis task in this library, built by the
// paper's generic recipe (§III: "hides statistically imperceptible
// secrets in solutions to numerous combinatorial optimization
// problems"): after scheduling, the author's bitstream selects pairs of
// *compatible* (never simultaneously live) variables inside a carved
// locality and constrains each pair to share one physical register.  A
// binder honors the constraints like any others; an unwatermarked flow
// puts a specific compatible pair in the same register only with small
// probability, and the product over M hidden pairs gives the proof of
// authorship.  Detection mirrors scheduling detection: re-derive the
// locality from the signature, map the recorded positions, and check the
// suspect binding.
#pragma once

#include <optional>
#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "regbind/binding.h"
#include "wm/domain.h"

namespace lwm::wm {

/// One hidden sharing constraint between two variables (identified by
/// their producer operations).
struct ShareConstraint {
  cdfg::NodeId u;
  cdfg::NodeId v;
  int u_pos = -1;  ///< positions within the ordered carved subtree
  int v_pos = -1;
};

struct RegWmOptions {
  DomainKey domain;
  int m = 4;          ///< sharing pairs per local watermark (M)
  int min_pairs = 1;  ///< reject localities yielding fewer pairs (weak
                      ///< marks false-positive on regular designs)
  static constexpr const char* kSelectTag = "lwm/reg-pairs";
};

/// The designer's record of one register-binding watermark.
struct RegWatermark {
  cdfg::NodeId root;
  RegWmOptions options;
  std::vector<ShareConstraint> constraints;
  std::vector<cdfg::NodeId> subtree;  ///< ordered carved subtree at embed time
};

/// Plans a register watermark rooted at `root` against the lifetimes of
/// the given schedule.  Returns nullopt if the locality holds fewer than
/// two compatible variables.
[[nodiscard]] std::optional<RegWatermark> plan_reg_watermark(
    const cdfg::Graph& g, const std::vector<regbind::Lifetime>& lifetimes,
    cdfg::NodeId root, const crypto::Signature& sig, const RegWmOptions& opts);

/// Plans watermarks at pseudo-random executable roots until `count`
/// succeed or `max_attempts` roots were drawn.  Throws
/// std::invalid_argument if it must draw a root and `g` has no operations.
[[nodiscard]] std::vector<RegWatermark> plan_reg_watermarks(
    const cdfg::Graph& g, const std::vector<regbind::Lifetime>& lifetimes,
    const crypto::Signature& sig, int count, const RegWmOptions& opts,
    int max_attempts = 1000);

/// Converts watermarks into binder constraints (share pairs).
[[nodiscard]] regbind::BindingConstraints to_binding_constraints(
    std::span<const RegWatermark> marks);

/// Graph-independent detection record (same scheme as SchedRecord).
struct RegRecord {
  DomainKey domain;
  int m = 0;  ///< the M used at embed time (re-derivation needs it)
  std::vector<std::pair<int, int>> positions;
  std::vector<int> subtree_ops;  ///< structural fingerprint of T

  [[nodiscard]] static RegRecord from(const RegWatermark& wm, const cdfg::Graph& g);
};

struct RegHit {
  cdfg::NodeId root;
  int satisfied = 0;
  int total = 0;
  [[nodiscard]] bool full() const { return total > 0 && satisfied == total; }
};

struct RegDetectionReport {
  std::vector<RegHit> hits;
  int roots_scanned = 0;
  [[nodiscard]] bool detected() const { return !hits.empty(); }
};

/// Scans every executable node of `suspect` as a candidate root.  At
/// each root the marking process is *re-derived* from the claimant's
/// signature (carve, pool, pair selection — all locality-internal, so
/// this stays robust under cut-and-embed); a hit requires the derived
/// pairs to match the record's positions (authorship binding: a forger
/// riding a stolen record fails here even in zero-entropy chain
/// localities) and the suspect binding to co-locate every pair
/// (presence in the solution).  `lifetimes` must come from the suspect's
/// recovered schedule.
[[nodiscard]] RegDetectionReport detect_reg_watermark(
    const cdfg::Graph& suspect, const std::vector<regbind::Lifetime>& lifetimes,
    const regbind::Binding& binding, const crypto::Signature& sig,
    const RegRecord& record);

/// Coincidence probability of the watermarks under a uniform-binding
/// model: a forced pair (u, v) coincides when an unwatermarked binder
/// happens to co-locate them, modeled as 1 / (number of variables
/// compatible with u, including v).  log10 probabilities sum over pairs.
[[nodiscard]] double log10_reg_pc(const cdfg::Graph& g,
                                  const std::vector<regbind::Lifetime>& lifetimes,
                                  std::span<const RegWatermark> marks);

}  // namespace lwm::wm
