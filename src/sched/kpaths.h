// kpaths.h — k-worst critical path extraction over the max-delay graph.
//
// Under the dynamically bounded delay model a single critical path
// length is not enough: a timing report wants to know *which* chains of
// operations are (nearly) critical under worst-case delays.
// k_worst_paths() enumerates the k longest source-to-sink paths by
// delay-weighted length with every delay at its upper bound d_max, and
// reports each path's optimistic length (all delays at d_min) alongside
// — the spread is the path's timing uncertainty.
//
// Algorithm: one reverse-topological pass computes tail[v], the longest
// v-to-sink length; enumeration is then best-first over a *path tree* —
// each partial path is a (node, parent entry) arena record, ranked by
// prefix length + tail[v], i.e. the exact length of the best completion.
// Expansion is monotone (a child's bound never exceeds its parent's), so
// paths pop in non-increasing final length, and capping pops at k per
// node keeps the frontier at O(k·E) without losing any of the k worst
// paths (a complete path through v uses one of the k longest prefixes
// reaching v — suffixes are prefix-independent in a DAG).  Ties break on
// arena creation order, which is itself deterministic (seeds in
// topological order, successors in edge insertion order), so the result
// is reproducible across runs and platforms.
#pragma once

#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"

namespace lwm::sched {

/// One enumerated source-to-sink path, worst first.
struct CriticalPath {
  std::vector<cdfg::NodeId> nodes;  ///< source to sink, in path order
  int length = 0;      ///< delay-weighted length under d_max (sum of delays)
  int length_min = 0;  ///< the same path walked at d_min (<= length)
};

/// The k longest source-to-sink paths of `g` under worst-case (d_max)
/// delays, restricted to edges accepted by `filter`.  Fewer than k are
/// returned when the graph has fewer distinct paths.  Ordered by
/// non-increasing length; ties in deterministic enumeration order.
/// paths[0].length always equals critical_path_length(g, filter).
/// Throws std::invalid_argument if k < 1.
[[nodiscard]] std::vector<CriticalPath> k_worst_paths(
    const cdfg::Graph& g, int k,
    cdfg::EdgeFilter filter = cdfg::EdgeFilter::all());

}  // namespace lwm::sched
