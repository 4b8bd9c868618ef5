// pick_root.h — test-only root draw: a pseudo-random executable node
// taken from `stream`, one next_uint over the executable nodes in id
// order — the draw wm::plan_reg_watermarks makes per attempt.  Tests use
// it to pick a root to plan or carve at.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cdfg/graph.h"
#include "crypto/bitstream.h"

namespace lwm::wm {

[[nodiscard]] inline cdfg::NodeId pick_root(const cdfg::Graph& g,
                                            crypto::Bitstream& stream) {
  std::vector<cdfg::NodeId> ops;
  for (const cdfg::NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  if (ops.empty()) {
    throw std::invalid_argument("pick_root: graph has no operations");
  }
  return ops[stream.next_uint(static_cast<std::uint32_t>(ops.size()))];
}

}  // namespace lwm::wm
