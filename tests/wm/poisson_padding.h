// poisson_padding.h — reaching the Poisson branch of wm::sched_pc_auto on
// a small design.
//
// The front door picks its estimator by graph size: exact enumeration at
// or below 2048 nodes, the Poisson model above.  Isolated input nodes
// change no window of the original nodes — an input has delay 0 and no
// edges, so neither the critical path nor any ASAP/ALAP bound (flat or
// periodic) moves — so the padded copy's Poisson estimate is the Poisson
// estimate of the original windows.  The marks' NodeIds stay valid: the
// padding only appends nodes.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "cdfg/graph.h"

namespace lwm::wm {

/// The size above which sched_pc_auto skips the exact path (pc.h).
inline constexpr std::size_t kDocumentedPoissonThreshold = 2048;

/// `g` plus `count` isolated input nodes.
inline cdfg::Graph with_isolated_inputs(cdfg::Graph g, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    (void)g.add_node(cdfg::OpKind::kInput, "poisson_pad_" + std::to_string(i));
  }
  return g;
}

/// `g` plus isolated input nodes until it has more nodes than the exact
/// threshold.
inline cdfg::Graph past_exact_threshold(cdfg::Graph g) {
  const std::size_t n = g.node_count();
  if (n > kDocumentedPoissonThreshold) return g;
  return with_isolated_inputs(std::move(g), kDocumentedPoissonThreshold + 1 - n);
}

}  // namespace lwm::wm
