// locality_oracle.h — test-only reference for the locality carve.
//
// The hash-map formulation of paper §IV-A domain selection, kept as the
// oracle for wm::order_locality and wm::select_domain: its own fan-in
// cone BFS, the C1 Kahn pass over node-keyed maps, one hash-map BFS per
// cone node for C2/C3, a comparator sort over per-node feature vectors,
// and the keyed top-down carve over node sets.  Slow (one allocation-
// heavy sweep per node) and shares no code with src/wm/domain.cpp
// beyond the graph, the edge filter and the bitstream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "wm/domain.h"

namespace lwm::wm::oracle {

namespace detail {

struct Features {
  cdfg::NodeId node;
  int discovery = 0;
  int level = 0;
  std::vector<int> cone_size;
  std::vector<long long> cone_phi;
};

inline bool carve_accepts(const cdfg::Edge& e) {
  return cdfg::EdgeFilter::specification().accepts(e);
}

/// Fan-in cone of `root` within `tau` edges, ordered by (distance, id).
inline std::vector<cdfg::ConeNode> cone_of(const cdfg::Graph& g,
                                           cdfg::NodeId root, int tau) {
  if (!g.is_live(root)) throw std::out_of_range("oracle: dead root node");
  std::unordered_map<std::uint32_t, int> dist;
  std::deque<cdfg::NodeId> queue{root};
  dist.emplace(root.value, 0);
  std::vector<cdfg::ConeNode> cone;
  while (!queue.empty()) {
    const cdfg::NodeId n = queue.front();
    queue.pop_front();
    const int dn = dist.at(n.value);
    cone.push_back(cdfg::ConeNode{n, dn});
    if (dn >= tau) continue;
    for (const cdfg::EdgeId e : g.fanin(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!carve_accepts(ed)) continue;
      if (dist.emplace(ed.src.value, dn + 1).second) queue.push_back(ed.src);
    }
  }
  std::sort(cone.begin(), cone.end(),
            [](const cdfg::ConeNode& a, const cdfg::ConeNode& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.node < b.node;
            });
  return cone;
}

/// In-cone producers of `n`, first-occurrence order.
inline std::vector<cdfg::NodeId> cone_inputs(
    const cdfg::Graph& g, cdfg::NodeId n,
    const std::unordered_set<cdfg::NodeId>& cone) {
  std::vector<cdfg::NodeId> inputs;
  for (const cdfg::EdgeId e : g.fanin(n)) {
    const cdfg::Edge& ed = g.edge(e);
    if (!carve_accepts(ed)) continue;
    if (cone.count(ed.src) == 0) continue;
    if (std::find(inputs.begin(), inputs.end(), ed.src) == inputs.end()) {
      inputs.push_back(ed.src);
    }
  }
  return inputs;
}

}  // namespace detail

/// T_o as a Graph walk gives it, with each member's in-cone inputs as
/// positions in `cone`, first-occurrence fan-in order: what
/// wm::gather_cone leaves in `CarveScratch::cone` and the carve indexes
/// into its local CSR rows.
struct IndexedCone {
  std::vector<cdfg::ConeNode> cone;
  std::vector<std::vector<std::uint32_t>> inputs;
};

inline IndexedCone indexed_cone(const cdfg::Graph& g, cdfg::NodeId root,
                                int tau) {
  IndexedCone out;
  out.cone = detail::cone_of(g, root, tau);
  std::unordered_set<cdfg::NodeId> members;
  std::unordered_map<cdfg::NodeId, std::uint32_t> position;
  for (std::size_t i = 0; i < out.cone.size(); ++i) {
    members.insert(out.cone[i].node);
    position[out.cone[i].node] = static_cast<std::uint32_t>(i);
  }
  for (const cdfg::ConeNode& c : out.cone) {
    std::vector<std::uint32_t> row;
    for (const cdfg::NodeId p : detail::cone_inputs(g, c.node, members)) {
      row.push_back(position.at(p));
    }
    out.inputs.push_back(std::move(row));
  }
  return out;
}

/// T_o ordered by C1 → C2 → C3 → discovery position.
inline std::vector<cdfg::NodeId> order_locality(const cdfg::Graph& g,
                                                cdfg::NodeId root, int tau) {
  using cdfg::NodeId;
  if (tau <= 0) throw std::invalid_argument("oracle: tau must be positive");
  const std::vector<cdfg::ConeNode> cone_nodes = detail::cone_of(g, root, tau);
  std::unordered_set<NodeId> cone;
  for (const cdfg::ConeNode& c : cone_nodes) cone.insert(c.node);

  // C1: Kahn pass over the transposed induced subgraph.
  std::unordered_map<NodeId, int> level;
  std::unordered_map<NodeId, int> pending;
  for (const cdfg::ConeNode& c : cone_nodes) pending[c.node] = 0;
  for (const cdfg::ConeNode& c : cone_nodes) {
    for (const cdfg::EdgeId e : g.fanin(c.node)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!detail::carve_accepts(ed)) continue;
      const auto it = pending.find(ed.src);
      if (it != pending.end()) ++it->second;
    }
  }
  std::deque<NodeId> ready{root};
  level[root] = 0;
  while (!ready.empty()) {
    const NodeId n = ready.front();
    ready.pop_front();
    const int next = level.at(n) + 1;
    for (const cdfg::EdgeId e : g.fanin(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!detail::carve_accepts(ed)) continue;
      if (cone.count(ed.src) == 0) continue;
      const auto li = level.find(ed.src);
      if (li == level.end()) {
        level[ed.src] = next;
      } else if (next > li->second) {
        li->second = next;
      }
      if (--pending.at(ed.src) == 0) ready.push_back(ed.src);
    }
  }

  // C2/C3: one bounded in-cone fan-in sweep per node.
  auto sweep = [&](NodeId n, std::vector<int>& sizes,
                   std::vector<long long>& phis) {
    std::unordered_map<NodeId, int> dist;
    dist[n] = 0;
    std::deque<NodeId> queue{n};
    sizes.assign(static_cast<std::size_t>(tau), 0);
    phis.assign(static_cast<std::size_t>(tau), 0);
    const long long phi_self = cdfg::functional_id(g.node(n).kind);
    while (!queue.empty()) {
      const NodeId m = queue.front();
      queue.pop_front();
      const int dm = dist[m];
      if (dm >= tau) continue;
      for (const NodeId p : detail::cone_inputs(g, m, cone)) {
        if (dist.count(p) != 0) continue;
        dist[p] = dm + 1;
        queue.push_back(p);
      }
    }
    for (const auto& [m, dm] : dist) {
      if (m == n) continue;
      for (int x = dm; x <= tau; ++x) {
        ++sizes[static_cast<std::size_t>(x - 1)];
        phis[static_cast<std::size_t>(x - 1)] +=
            cdfg::functional_id(g.node(m).kind);
      }
    }
    for (int x = 1; x <= tau; ++x) {
      phis[static_cast<std::size_t>(x - 1)] += phi_self;
    }
  };

  std::vector<detail::Features> feats;
  for (std::size_t i = 0; i < cone_nodes.size(); ++i) {
    detail::Features f;
    f.node = cone_nodes[i].node;
    f.discovery = static_cast<int>(i);
    f.level = level.at(f.node);
    sweep(f.node, f.cone_size, f.cone_phi);
    feats.push_back(std::move(f));
  }
  std::sort(feats.begin(), feats.end(),
            [tau](const detail::Features& a, const detail::Features& b) {
              if (a.level != b.level) return a.level > b.level;
              for (int x = 0; x < tau; ++x) {
                const auto xi = static_cast<std::size_t>(x);
                if (a.cone_size[xi] != b.cone_size[xi]) {
                  return a.cone_size[xi] > b.cone_size[xi];
                }
              }
              for (int x = 0; x < tau; ++x) {
                const auto xi = static_cast<std::size_t>(x);
                if (a.cone_phi[xi] != b.cone_phi[xi]) {
                  return a.cone_phi[xi] > b.cone_phi[xi];
                }
              }
              return a.discovery < b.discovery;
            });
  std::vector<NodeId> out;
  for (const detail::Features& f : feats) out.push_back(f.node);
  return out;
}

/// Ordering plus the signature-keyed top-down carve of T.
inline Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                            const crypto::Signature& sig,
                            const DomainKey& key) {
  using cdfg::NodeId;
  Domain d;
  d.root = root;
  const std::vector<NodeId> ordered = order_locality(g, root, key.tau);
  std::unordered_set<NodeId> cone(ordered.begin(), ordered.end());
  std::unordered_set<NodeId> selected{root};
  std::unordered_map<NodeId, int> rank;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    rank[ordered[i]] = static_cast<int>(i);
  }
  crypto::Bitstream stream = sig.stream(DomainKey::kCarveTag);
  std::deque<NodeId> queue{root};
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    std::vector<NodeId> inputs = detail::cone_inputs(g, n, cone);
    std::sort(inputs.begin(), inputs.end(),
              [&](NodeId a, NodeId b) { return rank.at(a) < rank.at(b); });
    if (inputs.empty()) continue;
    const std::uint32_t mandatory =
        stream.next_uint(static_cast<std::uint32_t>(inputs.size()));
    for (std::uint32_t i = 0; i < inputs.size(); ++i) {
      bool include = (i == mandatory);
      if (!include) include = stream.bernoulli(key.keep_num, key.keep_den);
      if (include && selected.insert(inputs[i]).second) {
        queue.push_back(inputs[i]);
      }
    }
  }
  for (const NodeId n : ordered) {
    if (selected.count(n) != 0) d.selected.push_back(n);
  }
  return d;
}

}  // namespace lwm::wm::oracle
