#include "cdfg/graph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace lwm::cdfg {

std::string_view edge_kind_name(EdgeKind k) noexcept {
  switch (k) {
    case EdgeKind::kData:
      return "data";
    case EdgeKind::kControl:
      return "control";
    case EdgeKind::kTemporal:
      return "temporal";
  }
  return "?";
}

NodeId Graph::add_node(OpKind kind, std::string name, int delay) {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  if (name.empty()) {
    name = std::string(op_name(kind)) + std::to_string(id.value);
  }
  if (delay < 0) {
    delay = default_delay(kind);
  }
  nodes_.push_back(Node{kind, std::move(name), delay, delay});
  node_live_.push_back(true);
  in_.emplace_back();
  out_.emplace_back();
  ++live_nodes_;
  return id;
}

void Graph::reserve_nodes(std::size_t nodes) {
  nodes_.reserve(nodes);
  node_live_.reserve(nodes);
  in_.reserve(nodes);
  out_.reserve(nodes);
}

void Graph::check_edge(NodeId src, NodeId dst, int tokens) const {
  check_live(src);
  check_live(dst);
  if (tokens < 0) {
    throw std::invalid_argument("Graph::add_edge: negative token count " +
                                std::to_string(tokens) + " on edge '" +
                                nodes_[src.value].name + "' -> '" +
                                nodes_[dst.value].name + "'");
  }
  if (src == dst && tokens == 0) {
    throw std::invalid_argument("Graph::add_edge: token-free self-loop on node '" +
                                nodes_[src.value].name + "'");
  }
}

EdgeId Graph::add_edge(NodeId src, NodeId dst, EdgeKind kind, int tokens) {
  check_edge(src, dst, tokens);
  const EdgeId id{static_cast<std::uint32_t>(edges_.size())};
  edges_.push_back(Edge{src, dst, kind, tokens});
  edge_live_.push_back(true);
  append(out_[src.value], id);
  append(in_[dst.value], id);
  ++live_edges_;
  return id;
}

void Graph::assign_edges(std::vector<Edge> edges) {
  if (!edges_.empty()) {
    throw std::logic_error("Graph::assign_edges: graph already has edges");
  }
  if (2 * edges.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Graph: adjacency arena exceeds 2^32 entries");
  }
  for (const Edge& e : edges) check_edge(e.src, e.dst, e.tokens);
  // Count each list's length into its capacity, give every node its
  // fan-in then its fan-out range in node order, then fill the ranges
  // in edge order, which keeps each list in insertion order.
  for (const Edge& e : edges) {
    ++out_[e.src.value].cap;
    ++in_[e.dst.value].cap;
  }
  std::uint32_t off = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    in_[i].off = off;
    off += in_[i].cap;
    out_[i].off = off;
    off += out_[i].cap;
  }
  arena_.resize(off);
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    AdjSlot& out = out_[edges[i].src.value];
    arena_[out.off + out.len++] = EdgeId{i};
    AdjSlot& in = in_[edges[i].dst.value];
    arena_[in.off + in.len++] = EdgeId{i};
  }
  edges_ = std::move(edges);
  edge_live_.assign(edges_.size(), true);
  live_edges_ = edges_.size();
}

void Graph::remove_edge(EdgeId e) {
  check_live(e);
  const Edge& ed = edges_[e.value];
  erase(out_[ed.src.value], e);
  erase(in_[ed.dst.value], e);
  edge_live_[e.value] = false;
  --live_edges_;
}

void Graph::remove_node(NodeId n) {
  check_live(n);
  // Peel from the back: each remove_edge() shortens the list it reads,
  // and a token self-loop leaves both of n's lists at once.
  while (in_[n.value].len != 0) {
    remove_edge(arena_[in_[n.value].off + in_[n.value].len - 1]);
  }
  while (out_[n.value].len != 0) {
    remove_edge(arena_[out_[n.value].off + out_[n.value].len - 1]);
  }
  node_live_[n.value] = false;
  --live_nodes_;
}

void Graph::rename_node(NodeId n, std::string name) {
  check_live(n);
  nodes_[n.value].name = std::move(name);
}

void Graph::set_delay_bounds(NodeId n, int dmin, int dmax) {
  check_live(n);
  if (dmin < 0 || dmax < dmin) {
    throw std::invalid_argument(
        "Graph::set_delay_bounds: need 0 <= dmin <= dmax, got [" +
        std::to_string(dmin) + ", " + std::to_string(dmax) + "] on node '" +
        nodes_[n.value].name + "'");
  }
  nodes_[n.value].delay_min = dmin;
  nodes_[n.value].delay = dmax;
}

bool Graph::has_bounded_delays() const noexcept {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (node_live_[i] && nodes_[i].bounded_delay()) return true;
  }
  return false;
}

bool Graph::has_token_edges() const noexcept {
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    if (edge_live_[i] && edges_[i].carried()) return true;
  }
  return false;
}

int Graph::strip_temporal_edges() {
  int removed = 0;
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    const EdgeId e{i};
    if (edge_live_[i] && edges_[i].kind == EdgeKind::kTemporal) {
      remove_edge(e);
      ++removed;
    }
  }
  return removed;
}

std::vector<NodeId> Graph::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(live_nodes_);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (node_live_[i]) out.push_back(NodeId{i});
  }
  return out;
}

std::vector<EdgeId> Graph::edge_ids() const {
  std::vector<EdgeId> out;
  out.reserve(live_edges_);
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    if (edge_live_[i]) out.push_back(EdgeId{i});
  }
  return out;
}

std::vector<EdgeId> Graph::edges_of_kind(EdgeKind k) const {
  std::vector<EdgeId> out;
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    if (edge_live_[i] && edges_[i].kind == k) out.push_back(EdgeId{i});
  }
  return out;
}

NodeId Graph::find(std::string_view name) const noexcept {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (node_live_[i] && nodes_[i].name == name) return NodeId{i};
  }
  return NodeId{};
}

std::size_t Graph::operation_count() const {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (node_live_[i] && is_executable(nodes_[i].kind)) ++n;
  }
  return n;
}

bool Graph::has_edge(NodeId src, NodeId dst, EdgeKind kind) const {
  if (!is_live(src) || !is_live(dst)) return false;
  for (EdgeId e : list(out_[src.value])) {
    const Edge& ed = edges_[e.value];
    if (ed.dst == dst && ed.kind == kind) return true;
  }
  return false;
}

void Graph::append(AdjSlot& s, EdgeId e) {
  if (s.len == s.cap) {
    const std::uint32_t cap = s.cap == 0 ? 2 : 2 * s.cap;
    const std::size_t end = arena_.size();
    if (end + cap > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Graph: adjacency arena exceeds 2^32 entries");
    }
    if (s.cap != 0 && s.off + s.cap == end) {
      // Already the arena's last list: grow it where it stands.
      arena_.resize(end + (cap - s.cap));
    } else {
      arena_.resize(end + cap);
      std::copy_n(arena_.begin() + s.off, s.len, arena_.begin() + end);
      s.off = static_cast<std::uint32_t>(end);
    }
    s.cap = cap;
  }
  arena_[s.off + s.len++] = e;
}

void Graph::erase(AdjSlot& s, EdgeId e) noexcept {
  const auto first = arena_.begin() + s.off;
  const auto last = first + s.len;
  s.len = static_cast<std::uint32_t>(std::remove(first, last, e) - first);
}

void Graph::throw_dead(NodeId n) {
  throw std::out_of_range("Graph: dead or out-of-range NodeId " +
                          std::to_string(n.value));
}

void Graph::throw_dead(EdgeId e) {
  throw std::out_of_range("Graph: dead or out-of-range EdgeId " +
                          std::to_string(e.value));
}

}  // namespace lwm::cdfg
