#include "sched/kpaths.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>

#include "obs/obs.h"

namespace lwm::sched {

using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

// One record of the path tree: a partial path is the chain of parent
// links from an arena entry back to a seed (parent == -1).
struct TreeEntry {
  NodeId node;
  std::int32_t parent;  ///< arena index of the prefix, -1 at a seed
};

// Frontier item: partial path `entry` ending at a node whose best
// completion has total length `bound`.
struct Frontier {
  long long bound;
  std::int32_t entry;
};

struct FrontierLess {
  // Max-heap on bound; on ties the *earlier-created* arena entry wins,
  // which pins the enumeration order to the deterministic expansion
  // sequence (seeds in topo order, successors in insertion order).
  bool operator()(const Frontier& a, const Frontier& b) const noexcept {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.entry > b.entry;
  }
};

}  // namespace

std::vector<CriticalPath> k_worst_paths(const Graph& g, int k,
                                        EdgeFilter filter) {
  if (k < 1) {
    throw std::invalid_argument("k_worst_paths: k must be >= 1, got " +
                                std::to_string(k));
  }
  LWM_SPAN("sched/kpaths");
  std::vector<CriticalPath> out;
  if (g.node_count() == 0) return out;

  // A token-free cycle would make "longest path" unbounded and the
  // best-first enumeration endless; refuse it up front, in O(V + E),
  // naming the cycle.  Token-carrying back-edges are fine — the default
  // filter excludes them, so a marked graph's acyclic skeleton is what
  // gets enumerated.
  const cdfg::CycleInfo cycle = cdfg::find_cycle(g, filter);
  if (cycle.found()) {
    throw std::invalid_argument(
        "k_worst_paths: path enumeration is undefined on a cyclic "
        "precedence relation in '" +
        g.name() + "': " + cycle.describe(g) +
        " (annotate loop-carried edges with tokens, or filter them out)");
  }
  const std::vector<NodeId> topo = cdfg::topo_order(g, filter);
  const std::size_t cap = g.node_capacity();

  // tail[v]: longest delay-weighted v-to-sink path length, v included.
  // Also mark sinks (no accepted fanout) — a complete path ends there.
  std::vector<long long> tail(cap, -1);
  std::vector<char> is_sink(cap, 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId n = *it;
    long long best = 0;
    bool sink = true;
    for (EdgeId e : g.fanout(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      sink = false;
      best = std::max(best, tail[ed.dst.value]);
    }
    is_sink[n.value] = sink ? 1 : 0;
    tail[n.value] = g.node(n).delay + best;
  }

  std::vector<TreeEntry> arena;
  std::priority_queue<Frontier, std::vector<Frontier>, FrontierLess> frontier;
  std::vector<int> pops(cap, 0);

  // Seeds: nodes with no accepted fan-in, in topological (== determin-
  // istic) order.  Their prefix length is 0, so the bound is tail alone.
  for (NodeId n : topo) {
    bool source = true;
    for (EdgeId e : g.fanin(n)) {
      if (filter.accepts(g.edge(e))) {
        source = false;
        break;
      }
    }
    if (!source) continue;
    const auto idx = static_cast<std::int32_t>(arena.size());
    arena.push_back(TreeEntry{n, -1});
    frontier.push(Frontier{tail[n.value], idx});
  }

  // prefix[entry]: delay-weighted length of the partial path *before*
  // its final node (so bound == prefix + tail[final]).  Kept parallel to
  // the arena instead of inside TreeEntry to keep the hot record small.
  std::vector<long long> prefix(arena.size(), 0);

  while (!frontier.empty() && static_cast<int>(out.size()) < k) {
    const Frontier f = frontier.top();
    frontier.pop();
    const TreeEntry ent = arena[static_cast<std::size_t>(f.entry)];
    const std::size_t v = ent.node.value;
    if (pops[v]++ >= k) continue;  // the k best prefixes already expanded

    if (is_sink[v]) {
      // Complete path: materialize the parent chain.
      CriticalPath p;
      for (std::int32_t i = f.entry; i >= 0; i = arena[static_cast<std::size_t>(i)].parent) {
        p.nodes.push_back(arena[static_cast<std::size_t>(i)].node);
      }
      std::reverse(p.nodes.begin(), p.nodes.end());
      long long len = 0, len_min = 0;
      for (NodeId n : p.nodes) {
        len += g.node(n).delay;
        len_min += g.node(n).delay_min;
      }
      p.length = static_cast<int>(len);
      p.length_min = static_cast<int>(len_min);
      out.push_back(std::move(p));
      continue;
    }

    const long long child_prefix =
        prefix[static_cast<std::size_t>(f.entry)] + g.node(ent.node).delay;
    for (EdgeId e : g.fanout(ent.node)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      const auto idx = static_cast<std::int32_t>(arena.size());
      arena.push_back(TreeEntry{ed.dst, f.entry});
      prefix.push_back(child_prefix);
      frontier.push(Frontier{child_prefix + tail[ed.dst.value], idx});
    }
  }
  LWM_COUNT("sched/kpaths_entries", arena.size());
  return out;
}

}  // namespace lwm::sched
