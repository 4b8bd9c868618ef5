// timing_cache.h — incremental timing queries over a CDFG.
//
// compute_timing() and reaches() in analysis.h recompute from scratch on
// every call, which is fine for one-shot analyses but dominates the
// schedulers: force-directed scheduling re-derives every [asap, alap]
// window after each placement, and watermark planning answers O(K^2)
// reachability queries with a fresh DFS each.  TimingCache keeps both
// answers materialized and maintains them incrementally:
//
//   * [lo, hi] start-step windows honoring *pinned* nodes.  pin(n, s)
//     re-relaxes only the fan-out cone whose ASAP actually rises and the
//     fan-in cone whose ALAP actually falls — a worklist ordered by
//     topological position, so each affected node is recomputed once.
//     Windows are integer fixed points of the same recurrences
//     compute_timing() solves, so they match a from-scratch recompute
//     exactly at every intermediate pinning state.
//   * reachability as a bitset transitive closure: reaches(src, dst) is
//     a single word probe (O(V/64) memory touched per row union during
//     construction, O(1) per query).  add_extra_edge(src, dst) unions
//     the new descendant row into src and its ancestors only.
//
// Windows are the scheduling (all-d_max) ones only: the cache reads
// Node::delay and nothing else of a node's delay interval.  The
// optimistic (all-d_min) windows of the paper's delay model have one
// engine, the from-scratch dual analysis in analysis.h.
//
// Invalidation rules (documented contract, relied on by the incremental
// FDS engine in sched/force_directed.cpp):
//   * pin() only ever *raises* lo and *lowers* hi — pinning a node
//     inside its current window can never widen any other window;
//   * after pin()/add_extra_edge(), last_changed() lists exactly the
//     nodes whose (lo, hi, pinned) state differs from before the call
//     (the mutated node itself always included);
//   * nodes outside last_changed() are bit-for-bit untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"

namespace lwm::cdfg {

class TimingCache {
 public:
  /// Builds windows (and optionally the reachability closure) for the
  /// live nodes of `g` under `filter`.  `latency < 0` means "critical
  /// path"; otherwise it must be >= the critical path (throws
  /// std::invalid_argument, matching compute_timing()).
  TimingCache(const Graph& g, int latency = -1,
              EdgeFilter filter = EdgeFilter::all(),
              bool with_reachability = false);

  [[nodiscard]] int critical_path() const noexcept { return critical_path_; }
  [[nodiscard]] int latency() const noexcept { return latency_; }

  /// Live nodes in the topological order used for all propagation.
  [[nodiscard]] const std::vector<NodeId>& topo() const noexcept {
    return topo_;
  }

  /// Current start-step window of `n` (pinned nodes have lo == hi).
  [[nodiscard]] int lo(NodeId n) const { return lo_[n.value]; }
  [[nodiscard]] int hi(NodeId n) const { return hi_[n.value]; }
  [[nodiscard]] bool is_pinned(NodeId n) const { return pinned_[n.value] >= 0; }

  /// Raw window arrays, indexed by NodeId::value (dead ids hold -1) —
  /// contiguous streams for the schedulers' hot loops.
  [[nodiscard]] const int* lo_data() const noexcept { return lo_.data(); }
  [[nodiscard]] const int* hi_data() const noexcept { return hi_.data(); }

  /// Fixes n's start step.  `step` must lie inside the current window
  /// (std::logic_error otherwise — the same violation compute_windows in
  /// the reference FDS reports).  Only the affected cone is re-relaxed.
  void pin(NodeId n, int step);

  /// Extra precedence src -> dst (a watermark temporal edge considered
  /// during planning).  Updates windows and, if enabled, the closure.
  /// Throws std::logic_error if the edge would close a cycle.  May leave
  /// some window empty (lo > hi) when the edge does not fit the latency
  /// bound; feasible() reports that.
  void add_extra_edge(NodeId src, NodeId dst);

  /// False once any window became empty (only add_extra_edge can do it).
  [[nodiscard]] bool feasible() const noexcept { return feasible_; }

  /// True if dst is reachable from src over accepted edges plus every
  /// extra edge added so far.  Requires with_reachability; O(1) probe.
  /// Matches cdfg::reaches(): reaches(n, n) is true for a live node.
  [[nodiscard]] bool reaches(NodeId src, NodeId dst) const;

  /// Nodes whose window or pinned state changed in the last mutating
  /// call (the pinned node / edge endpoints included when they changed;
  /// the pinned node is always reported).
  [[nodiscard]] const std::vector<NodeId>& last_changed() const noexcept {
    return changed_;
  }

  /// Cumulative count of node-window recomputations across all mutating
  /// calls — the "touched cone" size the incremental engine is buying.
  [[nodiscard]] std::uint64_t update_work() const noexcept {
    return update_work_;
  }

 private:
  [[nodiscard]] int compute_lo(NodeId n) const;
  [[nodiscard]] int compute_hi(NodeId n) const;
  void propagate_lo(const std::vector<NodeId>& seeds);
  void propagate_hi(const std::vector<NodeId>& seeds);
  void note_changed(NodeId n);
  void union_descendants(NodeId src, NodeId dst);

  [[nodiscard]] std::size_t row(std::size_t v) const noexcept {
    return v * words_;
  }

  const Graph* g_ = nullptr;
  EdgeFilter filter_;
  int critical_path_ = 0;
  int latency_ = 0;
  bool feasible_ = true;
  bool with_reach_ = false;

  std::vector<NodeId> topo_;
  std::vector<int> pos_;     ///< topo position by NodeId::value (-1 = dead)
  std::vector<int> lo_, hi_;
  std::vector<int> pinned_;  ///< pinned step, -1 = free

  // Filtered adjacency frozen to CSR at construction (SoA layout): the
  // worklist propagation walks these flat arenas instead of the graph's
  // vector-of-vectors, with the filter check and the predecessor delay
  // lookup already paid.  Indexed by NodeId::value; dead ids have empty
  // rows.  fanin_delay_[i] is the delay of fanin_node_[i] (the term the
  // ASAP recurrence adds); hi propagation subtracts the node's own
  // delay, kept in delay_.
  std::vector<std::uint32_t> fanin_off_, fanout_off_;  ///< cap + 1 each
  std::vector<std::uint32_t> fanin_node_, fanout_node_;
  std::vector<std::int32_t> fanin_delay_;
  std::vector<std::int32_t> delay_;  ///< per-node delay by NodeId::value

  std::vector<std::vector<NodeId>> extra_out_, extra_in_;

  std::size_t words_ = 0;
  std::vector<std::uint64_t> desc_;  ///< closure rows, desc_[row(v)..]

  std::vector<NodeId> changed_;
  std::vector<bool> changed_mark_;
  std::uint64_t update_work_ = 0;

  // Scratch reused across mutating calls (allocation-free steady state).
  std::vector<int> heap_;
  std::vector<char> queued_;
  std::vector<NodeId> seeds_;
};

}  // namespace lwm::cdfg
