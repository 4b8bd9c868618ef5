// subgraph.h — graph surgery: partition extraction and core embedding.
//
// These operations model the adversarial scenarios the paper motivates:
// a misappropriated core is *cut* out of a protected design (partition
// extraction), or *augmented* into a larger system (embedding).  Local
// watermarks must remain detectable under both.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdfg/graph.h"

namespace lwm::cdfg {

/// Mapping between a parent graph and a derived graph.
struct NodeMap {
  /// parent NodeId -> derived NodeId (only for carried-over nodes).
  std::unordered_map<NodeId, NodeId> forward;

  [[nodiscard]] NodeId at(NodeId parent) const {
    const auto it = forward.find(parent);
    return it == forward.end() ? NodeId{} : it->second;
  }
};

/// Result of cutting a set of nodes out of a design.
struct Partition {
  Graph graph;  ///< the extracted core
  NodeMap map;  ///< parent node -> core node
};

/// Extracts the subgraph induced by `keep` (live nodes of `g`).  Edges
/// severed at the boundary are re-terminated: a cut fan-in becomes a fresh
/// primary input, a cut fan-out becomes a fresh primary output — exactly
/// what an adversary lifting a core out of a chip would reconstruct.
/// Temporal edges internal to the cut are preserved only if
/// `keep_temporal` is set (a thief would not see them; they exist in the
/// designer's records).
[[nodiscard]] Partition extract_partition(const Graph& g,
                                          std::span<const NodeId> keep,
                                          bool keep_temporal = false);

/// Copies every live node and edge of `core` into `host`, prefixing node
/// names with `prefix` to keep them unique.  Returns the core->host node
/// mapping.  The core is left dangling: its inputs/outputs stay primary.
[[nodiscard]] NodeMap embed_graph(Graph& host, const Graph& core,
                                  const std::string& prefix);

}  // namespace lwm::cdfg
