// analysis.h — structural & timing analysis over CDFGs.
//
// Provides the primitives the watermarking protocols are built from:
//   * topological order over the precedence relation;
//   * ASAP / ALAP control steps and the critical path length C;
//   * laxity(n): length of the longest source-to-sink path through n;
//   * fan-in cones with bounded distance (the K_i(x) and phi(n_i, x)
//     metrics of ordering criteria C2/C3, and the fanin-tree domain T_o).
//
// Control steps are 0-based: an executable operation scheduled at step s
// occupies steps [s, s + delay).  Pseudo-operations (inputs, outputs,
// constants) have zero delay and float at the schedule boundaries.
#pragma once

#include <vector>

#include "cdfg/graph.h"

namespace lwm::cdfg {

/// Which edges participate in an analysis.  Watermark *selection* works
/// on the original specification (data + control only), while scheduling
/// and verification must also honor temporal edges.
///
/// Token-carrying edges (marked-graph back-edges, Edge::tokens > 0) are
/// excluded by default: every DAG analysis in this header sees the
/// acyclic token-free *skeleton* of a marked graph, which is exactly the
/// same-iteration precedence relation.  Only periodic-capable consumers
/// (modulo scheduling, RecMII, periodic timing) opt in via `token`.
struct EdgeFilter {
  bool data = true;
  bool control = true;
  bool temporal = true;
  bool token = false;  ///< include loop-carried (tokens > 0) edges

  [[nodiscard]] bool accepts(EdgeKind k) const noexcept {
    switch (k) {
      case EdgeKind::kData:
        return data;
      case EdgeKind::kControl:
        return control;
      case EdgeKind::kTemporal:
        return temporal;
    }
    return false;
  }

  /// Kind + token acceptance — the predicate every analysis applies per
  /// edge.  A token-carrying edge passes only if `token` is set.
  [[nodiscard]] bool accepts(const Edge& e) const noexcept {
    return accepts(e.kind) && (e.tokens == 0 || token);
  }

  /// All edge kinds (the default; used when scheduling a watermarked
  /// spec).  Token edges excluded: this is the acyclic skeleton.
  static constexpr EdgeFilter all() { return {true, true, true, false}; }
  /// Original specification only — temporal (watermark) edges ignored.
  static constexpr EdgeFilter specification() { return {true, true, false, false}; }
  /// Everything including loop-carried edges — the cyclic marked graph
  /// as the periodic schedulers see it.
  static constexpr EdgeFilter periodic() { return {true, true, true, true}; }
};

/// Live nodes in a topological order of the precedence relation restricted
/// to `filter`.  Throws std::runtime_error if the restriction is cyclic;
/// the message names a concrete cycle (via find_cycle below) so the
/// offending back-edge is identifiable from logs.
[[nodiscard]] std::vector<NodeId> topo_order(const Graph& g,
                                             EdgeFilter filter = EdgeFilter::all());

/// A concrete cycle in the precedence relation restricted to `filter`:
/// `nodes` lists the cycle in edge order (nodes[i] -> nodes[i+1], with a
/// closing edge nodes.back() -> nodes.front()); `edges` the corresponding
/// EdgeIds (edges[i] connects nodes[i] to nodes[(i+1) % size]).  Empty
/// when the restriction is acyclic.
struct CycleInfo {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;

  [[nodiscard]] bool found() const noexcept { return !nodes.empty(); }

  /// Human-readable "a -> b -> c -> a" rendering (capped at 8 nodes).
  [[nodiscard]] std::string describe(const Graph& g) const;
};

/// Finds one cycle in the restriction of the precedence relation to
/// `filter`, or an empty CycleInfo when acyclic.  O(V + E) DFS.
[[nodiscard]] CycleInfo find_cycle(const Graph& g,
                                   EdgeFilter filter = EdgeFilter::all());

/// ASAP/ALAP windows plus derived quantities.  Vectors are indexed by
/// NodeId::value; entries for dead ids are -1.
struct TimingInfo {
  std::vector<int> asap;  ///< earliest start step of each node
  std::vector<int> alap;  ///< latest start step within `latency`
  int critical_path = 0;  ///< C: minimum schedule length (delay-weighted)
  int latency = 0;        ///< bound used for ALAP (>= critical_path)

  /// slack = alap - asap (scheduling freedom in steps).
  [[nodiscard]] int slack(NodeId n) const { return alap[n.value] - asap[n.value]; }

  /// Longest source-to-sink path through n, in control steps — the
  /// paper's laxity(n).  Equals asap + (latency - alap); a critical node
  /// has laxity == latency (== C when latency == C).
  [[nodiscard]] int laxity(NodeId n) const {
    return asap[n.value] + latency - alap[n.value];
  }

  /// True when two nodes' [asap, alap] windows overlap — the protocol's
  /// "overlapping scheduling period" requirement for watermark edges.
  [[nodiscard]] bool windows_overlap(NodeId a, NodeId b) const {
    return asap[a.value] <= alap[b.value] && asap[b.value] <= alap[a.value];
  }
};

/// Computes ASAP, ALAP and the critical path under `filter`.
/// `latency` < 0 means "use the critical path length" (zero-slack ALAP on
/// critical nodes); otherwise it must be >= the critical path.
[[nodiscard]] TimingInfo compute_timing(const Graph& g, int latency = -1,
                                        EdgeFilter filter = EdgeFilter::all());

/// Dual min/max timing under the dynamically bounded delay model.
///
/// Every delay realization d(n) in [delay_min(n), delay(n)] yields some
/// concrete timing; the two extremes bracket them all:
///   * the *pessimistic* analysis (all delays at d_max) gives the
///     guaranteed windows every scheduler must respect — it is exactly
///     compute_timing(), unchanged;
///   * the *optimistic* analysis (all delays at d_min) gives the widest
///     windows any realization could see: asap_min[n] <= asap[n] is the
///     earliest n could possibly start, alap_min[n] >= alap[n] the
///     latest it could start and still meet the same latency bound.
/// On an exact-interval graph the two analyses coincide field for field.
struct BoundedTimingInfo {
  TimingInfo pess;            ///< d_max analysis (== compute_timing)
  std::vector<int> asap_min;  ///< earliest start under all-d_min delays
  std::vector<int> alap_min;  ///< latest start under all-d_min delays
  int critical_path_min = 0;  ///< minimum schedule length if every delay
                              ///< realizes at its lower bound

  /// Width added to n's window by delay uncertainty (0 on exact graphs).
  [[nodiscard]] int window_widening(NodeId n) const {
    return (pess.asap[n.value] - asap_min[n.value]) +
           (alap_min[n.value] - pess.alap[n.value]);
  }
};

/// Computes the dual analysis — the library's one source of optimistic
/// (d_min) windows; TimingCache keeps the d_max band only.  One
/// topological order feeds both passes, which share compute_timing()'s
/// relaxation kernel.  `latency` semantics match compute_timing(): it is
/// validated against the *pessimistic* critical path (the bound must
/// hold under worst-case delays), and the same bound feeds the
/// optimistic ALAP pass.
[[nodiscard]] BoundedTimingInfo compute_timing_bounded(
    const Graph& g, int latency = -1, EdgeFilter filter = EdgeFilter::all());

/// Critical path length C in control steps (delay-weighted longest
/// source-to-sink path over executable nodes).
[[nodiscard]] int critical_path_length(const Graph& g,
                                       EdgeFilter filter = EdgeFilter::all());

/// Dense NodeId-keyed marks for repeated bounded walks: begin() opens a new
/// epoch in O(1) and storage is zero-filled only when it grows, so a walk
/// costs what it touches, never O(node_capacity).
struct NodeMarks {
  struct Slot {
    std::uint32_t epoch = 0, value = 0;  ///< value: the caller's datum
  };
  std::vector<Slot> slots;  ///< by NodeId::value
  std::uint32_t current = 0;

  void begin(std::size_t node_capacity);
  [[nodiscard]] bool has(NodeId n) const { return slots[n.value].epoch == current; }
  /// Marks `n`; false when it was already marked this epoch.
  bool mark(NodeId n) {
    if (has(n)) return false;
    slots[n.value].epoch = current;
    return true;
  }
};

/// Transitive fan-in cone of `root` truncated at `max_distance` edges
/// (BFS over fan-in edges; distance = minimum edge count from `root`).
/// `max_distance < 0` means unbounded.  The result includes `root` at
/// distance 0 and is ordered by (distance, NodeId).  Caller-owned `marks`
/// hold exactly the cone on return, to index it without a second walk.
struct ConeNode {
  NodeId node;
  int distance = 0;
};
[[nodiscard]] std::vector<ConeNode> fanin_cone(const Graph& g, NodeId root,
                                               int max_distance = -1,
                                               EdgeFilter filter = EdgeFilter::specification(),
                                               NodeMarks* marks = nullptr);

/// K_i(x): number of nodes (excluding n_i itself) in the transitive
/// fan-in tree of n_i within distance x — ordering criterion C2.
[[nodiscard]] int cone_cardinality(const Graph& g, NodeId n, int x,
                                   EdgeFilter filter = EdgeFilter::specification());

/// phi(n_i, x): sum of functional ids f(n_a) over the fan-in tree of n_i
/// within distance x (n_i included) — ordering criterion C3.
[[nodiscard]] long long cone_functional_sum(const Graph& g, NodeId n, int x,
                                            EdgeFilter filter = EdgeFilter::specification());

/// Longest path (in edges) from `root` to each node reachable through
/// fan-in edges — the level L_i of ordering criterion C1 ("the longest
/// path in the CDFG from n_o to n_i").  Unreachable nodes get -1.
/// Indexed by NodeId::value.
[[nodiscard]] std::vector<int> levels_from(const Graph& g, NodeId root,
                                           EdgeFilter filter = EdgeFilter::specification());

/// True if `dst` is reachable from `src` over edges accepted by `filter`.
[[nodiscard]] bool reaches(const Graph& g, NodeId src, NodeId dst,
                           EdgeFilter filter = EdgeFilter::all());

}  // namespace lwm::cdfg
