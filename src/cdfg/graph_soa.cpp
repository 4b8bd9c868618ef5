#include "cdfg/graph_soa.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "cdfg/op.h"

namespace lwm::cdfg {

void GraphSoA::check_csr_limits(std::size_t nodes, std::uint64_t edge_entries) {
  if (nodes >= kInvalid) {
    throw std::length_error(
        "GraphSoA: " + std::to_string(nodes) +
        " live nodes exceed the 32-bit dense index space (max " +
        std::to_string(kInvalid - 1) +
        "; kInvalid is reserved as the dead-node sentinel)");
  }
  constexpr std::uint64_t kMaxEntries = std::numeric_limits<std::uint32_t>::max();
  if (edge_entries > kMaxEntries) {
    throw std::length_error(
        "GraphSoA: " + std::to_string(edge_entries) +
        " accepted edge entries exceed the 32-bit CSR offset range (max " +
        std::to_string(kMaxEntries) + ")");
  }
}

GraphSoA::GraphSoA(const Graph& g, EdgeFilter filter) : filter_(filter) {
  check_csr_limits(g.node_count(), 0);
  const std::size_t cap = g.node_capacity();
  dense_of_.assign(cap, kInvalid);
  node_of_.reserve(g.node_count());
  for (NodeId n : g.nodes()) {
    dense_of_[n.value] = static_cast<std::uint32_t>(node_of_.size());
    node_of_.push_back(n);
  }

  const std::uint32_t n = size();
  delay_.resize(n);
  cls_.resize(n);
  exec_.resize(n);
  fanin_off_.assign(n + 1, 0);
  fanout_off_.assign(n + 1, 0);

  // Pass 1: per-node attribute fill and accepted-degree counts.  The
  // running offsets accumulate in 64 bits; the narrowing into the uint32
  // offsets array is validated before pass 2 reads any of it back.
  std::uint64_t in_total = 0, out_total = 0;
  for (std::uint32_t d = 0; d < n; ++d) {
    const Node& node = g.node(node_of_[d]);
    delay_[d] = node.delay;
    cls_[d] = static_cast<std::uint8_t>(cdfg::unit_class(node.kind));
    exec_[d] = cdfg::is_executable(node.kind) ? 1 : 0;
    for (EdgeId e : g.fanin(node_of_[d])) {
      if (filter.accepts(g.edge(e))) ++in_total;
    }
    for (EdgeId e : g.fanout(node_of_[d])) {
      if (filter.accepts(g.edge(e))) ++out_total;
    }
    fanin_off_[d + 1] = static_cast<std::uint32_t>(in_total);
    fanout_off_[d + 1] = static_cast<std::uint32_t>(out_total);
  }
  check_csr_limits(node_of_.size(), in_total > out_total ? in_total : out_total);

  // Pass 2: arena fill, preserving each node's edge insertion order.
  fanin_.resize(fanin_off_[n]);
  fanout_.resize(fanout_off_[n]);
  for (std::uint32_t d = 0; d < n; ++d) {
    std::uint32_t in = fanin_off_[d], out = fanout_off_[d];
    for (EdgeId e : g.fanin(node_of_[d])) {
      const Edge& ed = g.edge(e);
      if (filter.accepts(ed)) fanin_[in++] = dense_of_[ed.src.value];
    }
    for (EdgeId e : g.fanout(node_of_[d])) {
      const Edge& ed = g.edge(e);
      if (filter.accepts(ed)) fanout_[out++] = dense_of_[ed.dst.value];
    }
  }
}

}  // namespace lwm::cdfg
