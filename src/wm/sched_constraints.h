// sched_constraints.h — constraint encoding for operation scheduling
// (paper Fig. 2).
//
// Given the carved subtree T, the encoder
//   1. filters T to T': executable nodes with enough scheduling slack
//      (laxity at most C·(1-epsilon)) and an overlapping ASAP–ALAP window
//      with some other candidate;
//   2. draws an ordered selection T'' of K nodes from T' using the
//      author's bitstream;
//   3. for each n_i in T'', picks an overlap partner n_k among later
//      T'' members and adds the temporal edge n_i -> n_k.
//
// Reproduction note on the laxity test: Fig. 2 literally reads
// "If laxity(n_i) > |C|(1-eps)", but the surrounding text says the
// restriction exists "to avoid significant timing overhead and to
// increase the scheduling freedom", and the twin protocol (Fig. 5)
// *excludes* nodes with laxity greater than C·(1-eps).  Constraining
// near-critical nodes would do the opposite of the stated goal, so we
// take the Fig. 2 comparison as a typo and admit nodes with
// laxity <= C·(1-eps).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "wm/domain.h"

namespace lwm::exec {
class ThreadPool;
}

namespace lwm::wm {

/// One embedded temporal constraint ("src must finish before dst starts").
struct TemporalConstraint {
  cdfg::NodeId src;
  cdfg::NodeId dst;
  /// Positions of src/dst in the *ordered carved subtree* — the
  /// graph-independent coordinates the detector uses.
  int src_pos = -1;
  int dst_pos = -1;
};

struct SchedWmOptions {
  DomainKey domain;
  int k = 5;              ///< temporal edges per local watermark (K)
  double epsilon = 0.25;  ///< laxity margin (epsilon > 0)
  int tau_prime_min = 0;  ///< minimum |T'|; 0 = max(k, 2).  If |T'| falls
                          ///< short the subtree is rejected ("the entire
                          ///< process of subtree selection is repeated").
  /// Minimum temporal edges a locality must yield to count as a
  /// watermark.  One-edge marks carry ~1 bit and false-positive readily
  /// on regular designs whose localities are isomorphic; raising this
  /// floor shrinks the per-root coincidence probability exponentially.
  int min_edges = 1;
  /// Purpose tag for the selection bitstream.
  static constexpr const char* kSelectTag = "lwm/sched-edges";
};

/// The designer's record of one embedded scheduling watermark.
struct SchedWatermark {
  cdfg::NodeId root;
  SchedWmOptions options;
  std::vector<TemporalConstraint> constraints;
  /// The ordered carved subtree at embed time (diagnostics; detection
  /// re-derives it from the suspect graph).
  std::vector<cdfg::NodeId> subtree;
};

/// Whole-graph state every plan of an embed call reads, computed once:
///
///   * `timing` — the specification TimingInfo the Fig. 2 filters read;
///   * `topo_rank` — one fixed topological order of the full graph
///     (EdgeFilter::all()), the *rank guard*: a temporal edge n_i -> n_k
///     is admitted iff rank(n_i) < rank(n_k).  Every accepted edge agrees
///     with the same order, so marks planned concurrently are jointly
///     acyclic by construction, with no closure state (V^2/64 bytes is
///     ~125 GB at 1M nodes) and no coordination;
///   * `ops` — the candidate roots (of embedding and of detection);
///   * `fanin` — the FaninView every carve of the graph reads.
///
/// The serial embedders use the *exact guard* instead: reachability
/// among the K members of T'', seeded from the graph and closed over
/// each planned edge.  It admits order-opposing edges the rank guard
/// refuses, and the paper results depend on them: on the rank guard,
/// Table I's PGP log10 P_c moves from -10.6 to -4.3 (2%) and the Fig. 3
/// A9 plan fails.
struct PlanContext {
  cdfg::TimingInfo timing;
  std::vector<std::uint32_t> topo_rank;  ///< indexed by NodeId::value
  std::vector<cdfg::NodeId> ops;         ///< executable nodes, id order
  FaninView fanin;

  [[nodiscard]] static PlanContext build(const cdfg::Graph& g);

  /// The order `topo_rank` ranks, rebuilt in O(V) for `g`, a graph with
  /// the context's live nodes and NodeIds.  Every edge the rank guard
  /// admits runs forward in it, so it stays a topological order
  /// (EdgeFilter::all()) of a copy marked against this context.
  [[nodiscard]] std::vector<cdfg::NodeId> topo_order(const cdfg::Graph& g) const;
};

/// Plans a watermark rooted at `root` without mutating `g` (exact guard).
/// Returns nullopt if the locality is unusable (|T'| < tau_prime_min, or
/// no overlap partners remain) — the caller then retries another root.
[[nodiscard]] std::optional<SchedWatermark> plan_sched_watermark(
    const cdfg::Graph& g, cdfg::NodeId root, const crypto::Signature& sig,
    const SchedWmOptions& opts);

/// Plans and embeds: adds the K temporal edges to `g`.
[[nodiscard]] std::optional<SchedWatermark> embed_sched_watermark(
    cdfg::Graph& g, cdfg::NodeId root, const crypto::Signature& sig,
    const SchedWmOptions& opts);

// The multi-mark embedders share one engine.  It draws up to
// `max_attempts` candidate roots from the "lwm/roots" stream over the
// executable nodes (a repeated draw is skipped), plans them in waves,
// and accepts plans in candidate order, adding their temporal edges to
// `g`, until the budget is met.  A graph with no executable node throws
// std::invalid_argument; a budget <= 0 returns no marks.

/// Embeds `count` local watermarks, skipping unusable localities.  Exact
/// guard: one candidate per wave, so every plan sees the edges of the
/// marks accepted before it.
[[nodiscard]] std::vector<SchedWatermark> embed_local_watermarks(
    cdfg::Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, int max_attempts = 1000);

/// Locality-parallel embedding for mega-designs: rank guard, waves of
/// max(64, 2·count) candidates planned concurrently over `pool` against
/// the graph as it stood before the wave.  Wave boundaries are a pure
/// function of the candidate sequence, so every accepted record and
/// every temporal edge is bit-identical at any thread count (pool ==
/// nullptr included).  Marks may differ from embed_local_watermarks'.
[[nodiscard]] std::vector<SchedWatermark> embed_local_watermarks_parallel(
    cdfg::Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, exec::ThreadPool* pool,
    int max_attempts = 1000);

/// Same embedding against a caller-provided context — the resident-state
/// entry point (serve::DesignStore keeps one PlanContext per design and
/// amortizes it across requests).  `ctx` must have been built for a
/// graph with the same live nodes, NodeIds and specification edges as
/// `g` (a copy of the context's graph qualifies, marked or not); `opts`
/// may vary per call.
/// Bit-identical to the context-building overload at any thread count.
[[nodiscard]] std::vector<SchedWatermark> embed_local_watermarks_parallel(
    cdfg::Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, exec::ThreadPool* pool,
    const PlanContext& ctx, int max_attempts = 1000);

/// Embeds local watermarks until at least `target_edges` temporal
/// constraints are in place (the Table I parameterization: constrain a
/// fixed fraction of the design's operations).  Exact guard, as
/// embed_local_watermarks.
[[nodiscard]] std::vector<SchedWatermark> embed_watermarks_until_edges(
    cdfg::Graph& g, const crypto::Signature& sig, int target_edges,
    const SchedWmOptions& opts, int max_attempts = 5000);

/// Materializes temporal constraints as *unit operations* (paper §V:
/// "temporal edges were induced using additional operations with unit
/// operators, e.g. additions with variables assigned to zero at
/// runtime"): every temporal edge src->dst is replaced by data edges
/// src -> unit -> dst through a fresh kUnit node.  This is how the
/// watermark enters a compiled instruction stream; the unit ops are what
/// cost the Table I performance overhead.  Returns the inserted nodes.
std::vector<cdfg::NodeId> materialize_with_unit_ops(
    cdfg::Graph& g, const std::vector<SchedWatermark>& marks);

}  // namespace lwm::wm
