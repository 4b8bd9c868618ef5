#include "cdfg/analysis.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <stdexcept>

#include "obs/obs.h"

namespace lwm::cdfg {

std::vector<NodeId> topo_order(const Graph& g, EdgeFilter filter) {
  const std::size_t cap = g.node_capacity();
  std::vector<int> indegree(cap, 0);
  for (NodeId n : g.nodes()) {
    for (EdgeId e : g.fanin(n)) {
      if (filter.accepts(g.edge(e))) ++indegree[n.value];
    }
  }
  std::deque<NodeId> ready;
  for (NodeId n : g.nodes()) {
    if (indegree[n.value] == 0) ready.push_back(n);
  }
  std::vector<NodeId> order;
  order.reserve(g.node_count());
  while (!ready.empty()) {
    const NodeId n = ready.front();
    ready.pop_front();
    order.push_back(n);
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (--indegree[ed.dst.value] == 0) ready.push_back(ed.dst);
    }
  }
  if (order.size() != g.node_count()) {
    // Name a concrete cycle so the offending (back-)edge is identifiable
    // from logs: a bare "is cyclic" on a 1M-node design is undebuggable.
    const CycleInfo cycle = find_cycle(g, filter);
    std::string msg = "topo_order: precedence relation is cyclic in '" +
                      g.name() + "'";
    if (cycle.found()) msg += ": " + cycle.describe(g);
    throw std::runtime_error(msg);
  }
  return order;
}

std::string CycleInfo::describe(const Graph& g) const {
  if (nodes.empty()) return "(acyclic)";
  constexpr std::size_t kMaxNamed = 8;
  std::string out = "cycle [";
  const std::size_t shown = std::min(nodes.size(), kMaxNamed);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) out += " -> ";
    out += g.node(nodes[i]).name;
  }
  if (nodes.size() > kMaxNamed) {
    out += " -> ... (" + std::to_string(nodes.size() - kMaxNamed) + " more)";
  }
  out += " -> " + g.node(nodes.front()).name + "]";
  return out;
}

CycleInfo find_cycle(const Graph& g, EdgeFilter filter) {
  // Iterative DFS with tri-color marking; when a gray node is re-entered
  // the gray stack from that node onward is the cycle.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(g.node_capacity(), kWhite);
  struct Frame {
    NodeId node;
    std::size_t next = 0;       // index into fanout(node)
    EdgeId via;                 // edge that entered this frame
  };
  std::vector<Frame> stack;
  CycleInfo cycle;
  for (NodeId root : g.nodes()) {
    if (color[root.value] != kWhite) continue;
    stack.push_back(Frame{root, 0, EdgeId{}});
    color[root.value] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const std::span<const EdgeId> out = g.fanout(f.node);
      bool descended = false;
      while (f.next < out.size()) {
        const EdgeId e = out[f.next++];
        const Edge& ed = g.edge(e);
        if (!filter.accepts(ed)) continue;
        if (color[ed.dst.value] == kGray) {
          // Found: unwind the gray stack back to ed.dst's own frame —
          // the cycle entry itself, not the frame after it (dropping
          // the entry truncated every reported cycle by one node and
          // rendered a 2-cycle as a bogus self-loop).
          std::size_t start = stack.size();
          while (start > 0 && stack[start - 1].node != ed.dst) --start;
          for (std::size_t i = start - 1; i < stack.size(); ++i) {
            cycle.nodes.push_back(stack[i].node);
            if (i + 1 < stack.size()) cycle.edges.push_back(stack[i + 1].via);
          }
          cycle.edges.push_back(e);  // closing edge back to nodes[0]
          // The closing edge is last and nodes[0] is the cycle entry
          // (ed.dst) by construction.
          return cycle;
        }
        if (color[ed.dst.value] == kWhite) {
          color[ed.dst.value] = kGray;
          stack.push_back(Frame{ed.dst, 0, e});
          descended = true;
          break;
        }
      }
      if (!descended) {
        color[f.node.value] = kBlack;
        stack.pop_back();
      }
    }
  }
  return cycle;
}

TimingInfo compute_timing(const Graph& g, int latency, EdgeFilter filter) {
  // One relaxed add per O(V+E) pass: the work guard for callers that
  // promise to reuse resident windows instead of re-timing.
  LWM_COUNT("cdfg/timing_passes", 1);
  const std::size_t cap = g.node_capacity();
  TimingInfo t;
  t.asap.assign(cap, -1);
  t.alap.assign(cap, -1);

  const std::vector<NodeId> order = topo_order(g, filter);

  // ASAP: forward longest path.
  int cp = 0;
  for (NodeId n : order) {
    int start = 0;
    for (EdgeId e : g.fanin(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      const NodeId p = ed.src;
      start = std::max(start, t.asap[p.value] + g.node(p).delay);
    }
    t.asap[n.value] = start;
    cp = std::max(cp, start + g.node(n).delay);
  }
  t.critical_path = cp;

  if (latency < 0) {
    latency = cp;
  } else if (latency < cp) {
    throw std::invalid_argument(
        "compute_timing: latency " + std::to_string(latency) +
        " below critical path " + std::to_string(cp) + " in '" + g.name() + "'");
  }
  t.latency = latency;

  // ALAP: backward longest path against the latency bound.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    int latest = latency - g.node(n).delay;
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      latest = std::min(latest, t.alap[ed.dst.value] - g.node(n).delay);
    }
    t.alap[n.value] = latest;
  }
  return t;
}

int critical_path_length(const Graph& g, EdgeFilter filter) {
  return compute_timing(g, -1, filter).critical_path;
}

BoundedTimingInfo compute_timing_bounded(const Graph& g, int latency,
                                         EdgeFilter filter) {
  BoundedTimingInfo t;
  t.pess = compute_timing(g, latency, filter);  // validates the latency bound

  const std::size_t cap = g.node_capacity();
  t.asap_min.assign(cap, -1);
  t.alap_min.assign(cap, -1);

  const std::vector<NodeId> order = topo_order(g, filter);

  // Optimistic ASAP: forward longest path with every delay at d_min.
  int cp = 0;
  for (NodeId n : order) {
    int start = 0;
    for (EdgeId e : g.fanin(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      const NodeId p = ed.src;
      start = std::max(start, t.asap_min[p.value] + g.node(p).delay_min);
    }
    t.asap_min[n.value] = start;
    cp = std::max(cp, start + g.node(n).delay_min);
  }
  t.critical_path_min = cp;

  // Optimistic ALAP against the same (pessimistic) latency bound: the
  // latest n could start and still finish by t.pess.latency if every
  // downstream delay realizes at its lower bound.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    int latest = t.pess.latency - g.node(n).delay_min;
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      latest = std::min(latest, t.alap_min[ed.dst.value] - g.node(n).delay_min);
    }
    t.alap_min[n.value] = latest;
  }
  return t;
}

std::vector<ConeNode> fanin_cone(const Graph& g, NodeId root, int max_distance,
                                 EdgeFilter filter) {
  if (!g.is_live(root)) {
    throw std::out_of_range("fanin_cone: dead root node");
  }
  // Distances live in a hash map sized to the cone, not a dense O(V)
  // array: a bounded cone is tiny, and detection carves one cone per
  // scanned root — an O(node_capacity) zero-fill per carve is minutes of
  // pure memset on a 1M-node design.
  std::unordered_map<std::uint32_t, int> dist;
  std::deque<NodeId> queue;
  dist.emplace(root.value, 0);
  queue.push_back(root);
  std::vector<ConeNode> cone;
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    const int dn = dist.at(n.value);
    cone.push_back(ConeNode{n, dn});
    if (max_distance >= 0 && dn >= max_distance) continue;
    for (EdgeId e : g.fanin(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (dist.emplace(ed.src.value, dn + 1).second) {
        queue.push_back(ed.src);
      }
    }
  }
  // BFS already yields nondecreasing distance; make (distance, id) exact.
  std::sort(cone.begin(), cone.end(), [](const ConeNode& a, const ConeNode& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.node < b.node;
  });
  return cone;
}

int cone_cardinality(const Graph& g, NodeId n, int x, EdgeFilter filter) {
  const auto cone = fanin_cone(g, n, x, filter);
  return static_cast<int>(cone.size()) - 1;  // exclude n itself
}

long long cone_functional_sum(const Graph& g, NodeId n, int x, EdgeFilter filter) {
  long long sum = 0;
  for (const ConeNode& c : fanin_cone(g, n, x, filter)) {
    sum += functional_id(g.node(c.node).kind);
  }
  return sum;
}

std::vector<int> levels_from(const Graph& g, NodeId root, EdgeFilter filter) {
  if (!g.is_live(root)) {
    throw std::out_of_range("levels_from: dead root node");
  }
  // Longest path over fan-in edges from root: process nodes in reverse
  // topological order (fan-in direction follows edges backwards, so a
  // node's level depends on its fan-out side nodes' levels).
  std::vector<int> level(g.node_capacity(), -1);
  level[root.value] = 0;
  const std::vector<NodeId> order = topo_order(g, filter);
  // Walk from sinks toward sources: reverse topological order guarantees
  // that when we visit n, every consumer of n is finalized.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (level[ed.dst.value] >= 0) {
        level[n.value] = std::max(level[n.value], level[ed.dst.value] + 1);
      }
    }
  }
  return level;
}

bool reaches(const Graph& g, NodeId src, NodeId dst, EdgeFilter filter) {
  if (!g.is_live(src) || !g.is_live(dst)) return false;
  if (src == dst) return true;
  std::vector<bool> seen(g.node_capacity(), false);
  std::deque<NodeId> queue{src};
  seen[src.value] = true;
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed) || seen[ed.dst.value]) continue;
      if (ed.dst == dst) return true;
      seen[ed.dst.value] = true;
      queue.push_back(ed.dst);
    }
  }
  return false;
}

}  // namespace lwm::cdfg
