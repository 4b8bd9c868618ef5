// detector.h — copy detection for local watermarks.
//
// "During copy detection, the goal is to find at least one local
// watermark in a particular design."  The detector holds the designer's
// watermark records in *graph-independent coordinates*: the domain key,
// plus each temporal constraint as a pair of positions inside the
// ordered carved subtree.  Scanning a suspect design, it treats every
// node as a candidate root, re-derives the locality with the author's
// signature (domain selection is a pure function of local structure and
// the signature), maps the recorded positions back to suspect nodes and
// checks the recovered schedule against the constraints.  Because
// everything is locality-relative, detection works on cut-out partitions
// and on cores embedded in larger systems — the two scenarios global
// watermarks fail (paper §I).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "sched/schedule.h"
#include "tmatch/cover.h"
#include "wm/sched_constraints.h"
#include "wm/tm_constraints.h"

namespace lwm::exec {
class ThreadPool;
}

namespace lwm::wm {

/// Graph-independent record of one scheduling watermark (what the
/// designer archives at embed time).
struct SchedRecord {
  DomainKey domain;
  /// (src position, dst position) within the ordered carved subtree.
  std::vector<std::pair<int, int>> positions;
  /// Structural fingerprint of the memorized subtree T: the functional id
  /// of every carved node, in unique-identifier order.  Detection first
  /// "checks whether [a candidate node] represents a root n_o of the
  /// memorized subtree" (paper §IV-A) by comparing this sequence; only
  /// then are the schedule constraints verified.  Without it, ASAP-like
  /// schedules coincidentally satisfy src-before-dst pairs at many
  /// unrelated roots.
  std::vector<int> subtree_ops;

  [[nodiscard]] static SchedRecord from(const SchedWatermark& wm,
                                        const cdfg::Graph& g);
};

/// One candidate-root evaluation.
struct SchedHit {
  cdfg::NodeId root;
  int satisfied = 0;  ///< constraints honored by the suspect schedule
  int total = 0;      ///< constraints mappable at this root
  [[nodiscard]] bool full() const { return total > 0 && satisfied == total; }
};

struct SchedDetectionReport {
  std::vector<SchedHit> hits;       ///< full matches only
  cdfg::NodeId best_root;           ///< strongest gated root; see below
  int roots_scanned = 0;

  [[nodiscard]] bool detected() const { return !hits.empty(); }
};

/// One ConeFingerprint slot per NodeId of one graph, at one tau: the
/// part of a carve that depends on neither the signature nor the record,
/// kept across detect calls on a resident design.  A slot is filled the
/// first time a scan needs it.  Concurrent scans are race-free: a slot
/// goes empty → claimed → filled (0 → 2 → 1) by one compare-exchange, and
/// a scan that loses the claim keeps the fingerprint it computed.  A pure
/// cache: reports are identical with a cold, warm or absent memo.
class ConeMemo {
 public:
  ConeMemo(std::size_t node_capacity, int tau);

  [[nodiscard]] int tau() const { return tau_; }
  /// The fingerprint of `root`'s cone, or null while its slot is unfilled.
  [[nodiscard]] const ConeFingerprint* find(cdfg::NodeId root) const;
  /// Fills `root`'s slot with `fp` unless another scan claimed it first.
  void publish(cdfg::NodeId root, const ConeFingerprint& fp);

 private:
  int tau_;
  std::vector<ConeFingerprint> slots_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
};

/// Scans every executable node of `suspect` as a candidate root for
/// every record at once.  The expensive step of detection is the
/// per-root signature carve (ordering the locality and replaying the
/// keyed BFS); it depends only on the domain key, not on the record, so
/// an archive sharing one key costs one carve per root instead of one per
/// (root, record).  Results are index-aligned with `records`.
///
/// A root passes the structural gate for a record when the carve there
/// is the memorized subtree (`subtree_matches`); it is a hit when every
/// recorded constraint then holds in `schedule`.  `best_root` is the
/// earliest root, among those passing the gate, with the greatest
/// satisfied count; it is invalid when no root passes.  A record with a
/// position outside [0, subtree_ops.size()) or an op id outside
/// [1, cdfg::kNumOpKinds] is malformed and never passes.  With a pool the
/// roots are scanned across its lanes and partial results merge in root
/// order, so every report is identical at any thread count.
///
/// Two exact prefilters skip carves that cannot pass the gate: the
/// record's last op must be the root's (the root sorts last), and the
/// record's op multiset must fit in the root's cone (ConeFingerprint).
/// A carve stops once T outgrows every record that ends in the root's op
/// (carve_cone's bound), and only a completed T with some such record's
/// op multiset is ordered and gated.  `memo`, when non-null, must have
/// been built for `suspect`; key groups at its tau read and fill it, the
/// others fingerprint each gathered cone.  `resident`, when non-null,
/// must have been built for `suspect`: the scan reads its FaninView and
/// takes its `ops` as the roots; without it, the call builds both once.
[[nodiscard]] std::vector<SchedDetectionReport> detect_sched_watermarks(
    const cdfg::Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& sig, std::span<const SchedRecord> records,
    exec::ThreadPool* pool = nullptr, ConeMemo* memo = nullptr,
    const PlanContext* resident = nullptr);

/// Single-record detection: a batch of one.
[[nodiscard]] inline SchedDetectionReport detect_sched_watermark(
    const cdfg::Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& sig, const SchedRecord& record,
    exec::ThreadPool* pool = nullptr) {
  return detect_sched_watermarks(suspect, schedule, sig, {&record, 1}, pool)
      .front();
}

/// Template-matching detection: re-plans the watermark on the suspect
/// graph with the author's signature and checks that every enforced
/// matching appears (same template, same node set) in the suspect cover.
struct TmDetectionReport {
  int found = 0;
  int total = 0;
  [[nodiscard]] bool detected() const { return total > 0 && found == total; }
};
[[nodiscard]] TmDetectionReport detect_tm_watermark(
    const cdfg::Graph& suspect, const tmatch::Cover& suspect_cover,
    const tmatch::TemplateLibrary& lib, const crypto::Signature& sig,
    const TmWmOptions& opts);

}  // namespace lwm::wm
