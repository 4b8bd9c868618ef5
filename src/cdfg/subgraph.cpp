#include "cdfg/subgraph.h"

#include <stdexcept>
#include <unordered_set>

namespace lwm::cdfg {

Partition extract_partition(const Graph& g, std::span<const NodeId> keep,
                            bool keep_temporal) {
  Partition part;
  part.graph.set_name(g.name() + "_part");
  std::unordered_set<NodeId> keep_set(keep.begin(), keep.end());

  for (NodeId n : keep) {
    if (!g.is_live(n)) {
      throw std::out_of_range("extract_partition: dead node in keep set");
    }
    const Node& node = g.node(n);
    const NodeId copy =
        part.graph.add_node(node.kind, node.name, node.delay);
    part.graph.set_delay_bounds(copy, node.delay_min, node.delay);
    part.map.forward[n] = copy;
  }

  int fresh_in = 0;
  int fresh_out = 0;
  for (EdgeId e : g.edges()) {
    const Edge& ed = g.edge(e);
    const bool src_in = keep_set.count(ed.src) != 0;
    const bool dst_in = keep_set.count(ed.dst) != 0;
    if (ed.kind == EdgeKind::kTemporal && !keep_temporal) continue;
    if (src_in && dst_in) {
      part.graph.add_edge(part.map.at(ed.src), part.map.at(ed.dst), ed.kind,
                          ed.tokens);
    } else if (dst_in && ed.kind == EdgeKind::kData) {
      // Severed fan-in: the value now arrives from outside the core.
      const NodeId in = part.graph.add_node(
          OpKind::kInput, "cut_in" + std::to_string(fresh_in++));
      part.graph.add_edge(in, part.map.at(ed.dst), EdgeKind::kData);
    } else if (src_in && ed.kind == EdgeKind::kData) {
      // Severed fan-out: the value leaves the core.
      const NodeId out = part.graph.add_node(
          OpKind::kOutput, "cut_out" + std::to_string(fresh_out++));
      part.graph.add_edge(part.map.at(ed.src), out, EdgeKind::kData);
    }
    // Severed control/temporal edges simply disappear with the context.
  }
  return part;
}

NodeMap embed_graph(Graph& host, const Graph& core, const std::string& prefix) {
  NodeMap map;
  for (NodeId n : core.nodes()) {
    const Node& node = core.node(n);
    const NodeId copy = host.add_node(node.kind, prefix + node.name, node.delay);
    host.set_delay_bounds(copy, node.delay_min, node.delay);
    map.forward[n] = copy;
  }
  for (EdgeId e : core.edges()) {
    const Edge& ed = core.edge(e);
    host.add_edge(map.at(ed.src), map.at(ed.dst), ed.kind, ed.tokens);
  }
  return map;
}

}  // namespace lwm::cdfg
