#include "wm/domain.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/obs.h"

namespace lwm::wm {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

/// The carve's edge predicate, for the cone walk and every input list:
/// specification() drops temporal and token edges alike, so a marked graph
/// carves like its acyclic skeleton and earlier marks stay detectable.
const cdfg::EdgeFilter kCarveFilter = cdfg::EdgeFilter::specification();

/// Working memory of one-off carves: one per thread, kept for reuse.
CarveScratch& thread_scratch() {
  thread_local CarveScratch s;
  return s;
}

/// Orders the cone gathered into `s` at `tau` into `s.order` by
/// C1 → C2 → C3 → discovery.
void order_cone(const Graph& g, int tau, CarveScratch& s) {
  const auto c = static_cast<std::uint32_t>(s.cone.size());
  for (std::uint32_t i = 0; i < c; ++i) s.marks.slots[s.cone[i].node.value].value = i;

  s.in_begin.resize(c + 1);
  s.in.clear();
  for (std::uint32_t i = 0; i < c; ++i) {
    s.in_begin[i] = static_cast<std::uint32_t>(s.in.size());
    for (EdgeId e : g.fanin(s.cone[i].node)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kCarveFilter.accepts(ed) || !s.marks.has(ed.src)) continue;
      const std::uint32_t j = s.marks.slots[ed.src.value].value;
      if (std::find(s.in.begin() + s.in_begin[i], s.in.end(), j) == s.in.end()) {
        s.in.push_back(j);
      }
    }
  }
  s.in_begin[c] = static_cast<std::uint32_t>(s.in.size());

  // C1: levels — longest path from the root (local 0) inside the cone,
  // by a Kahn pass over the transposed induced subgraph: a node is
  // finalized once every in-cone consumer has been.
  s.level.assign(c, 0);
  s.pending.assign(c, 0);
  for (const std::uint32_t j : s.in) ++s.pending[j];
  s.queue.assign(1, 0);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const std::uint32_t i = s.queue[head];
    for (const std::uint32_t j : s.inputs_of(i)) {
      s.level[j] = std::max(s.level[j], s.level[i] + 1);
      if (--s.pending[j] == 0) s.queue.push_back(j);
    }
  }
  if (s.queue.size() != c) {
    throw std::invalid_argument("order_locality: locality has a token-free cycle");
  }

  // C2/C3: one stamped BFS per node over the local CSR buckets every
  // reached node by its distance; a prefix sum over x turns the buckets
  // into K(x) and phi(x) (phi counts the node itself at every x).
  const auto t = static_cast<std::size_t>(tau);
  s.fid.resize(c);
  for (std::uint32_t i = 0; i < c; ++i) {
    s.fid[i] = cdfg::functional_id(g.node(s.cone[i].node).kind);
  }
  s.cone_size.assign(c * t, 0);
  s.cone_phi.assign(c * t, 0);
  s.seen.assign(c, 0);
  s.dist.resize(c);
  for (std::uint32_t i = 0; i < c; ++i) {
    int* size = s.cone_size.data() + i * t;
    long long* phi = s.cone_phi.data() + i * t;
    s.seen[i] = i + 1;
    s.dist[i] = 0;
    s.queue.assign(1, i);
    for (std::size_t head = 0; head < s.queue.size(); ++head) {
      const std::uint32_t m = s.queue[head];
      const std::uint32_t dm = s.dist[m];
      if (dm >= t) continue;
      for (const std::uint32_t p : s.inputs_of(m)) {
        if (s.seen[p] == i + 1) continue;
        s.seen[p] = i + 1;
        s.dist[p] = dm + 1;
        s.queue.push_back(p);
        ++size[dm];
        phi[dm] += s.fid[p];
      }
    }
    for (std::size_t x = 1; x < t; ++x) {
      size[x] += size[x - 1];
      phi[x] += phi[x - 1];
    }
    for (std::size_t x = 0; x < t; ++x) phi[x] += s.fid[i];
  }

  s.order.resize(c);
  std::iota(s.order.begin(), s.order.end(), 0u);
  std::sort(s.order.begin(), s.order.end(), [&s, t](std::uint32_t a, std::uint32_t b) {
    if (s.level[a] != s.level[b]) return s.level[a] > s.level[b];  // C1: deeper first
    const int* sa = s.cone_size.data() + a * t;
    const int* sb = s.cone_size.data() + b * t;
    for (std::size_t x = 0; x < t; ++x) {  // C2 at growing x
      if (sa[x] != sb[x]) return sa[x] > sb[x];
    }
    const long long* pa = s.cone_phi.data() + a * t;
    const long long* pb = s.cone_phi.data() + b * t;
    for (std::size_t x = 0; x < t; ++x) {  // C3 at growing x
      if (pa[x] != pb[x]) return pa[x] > pb[x];
    }
    return a < b;  // structural tie-break: discovery position
  });
}

/// The saturating fingerprint of `items`, whose op ids `op_of` gives.
template <class Item, class OpOf>
ConeFingerprint tally_ops(std::span<const Item> items, OpOf op_of) {
  ConeFingerprint fp;
  fp.size = static_cast<std::uint16_t>(
      std::min<std::size_t>(items.size(), ConeFingerprint::kMaxSize));
  for (const Item& item : items) {
    std::uint8_t& n = fp.count[static_cast<std::size_t>(op_of(item) - 1)];
    if (n != ConeFingerprint::kMaxCount) ++n;
  }
  return fp;
}

}  // namespace

std::vector<NodeId> order_locality(const Graph& g, NodeId root, int tau) {
  CarveScratch& s = thread_scratch();
  gather_cone(g, root, tau, s);
  order_cone(g, tau, s);
  std::vector<NodeId> out;
  out.reserve(s.order.size());
  for (const std::uint32_t i : s.order) out.push_back(s.cone[i].node);
  return out;
}

void gather_cone(const Graph& g, NodeId root, int tau, CarveScratch& s) {
  if (tau <= 0) {
    throw std::invalid_argument("order_locality: tau must be positive");
  }
  s.cone = cdfg::fanin_cone(g, root, tau, kCarveFilter, &s.marks);
}

Domain select_domain(const Graph& g, NodeId root, const crypto::Bitstream& carve,
                     const DomainKey& key, CarveScratch* scratch) {
  CarveScratch& s = scratch != nullptr ? *scratch : thread_scratch();
  gather_cone(g, root, key.tau, s);
  return carve_cone(g, carve, key, s);
}

Domain carve_cone(const Graph& g, const crypto::Bitstream& carve,
                  const DomainKey& key, CarveScratch& s) {
  order_cone(g, key.tau, s);
  const std::size_t c = s.order.size();
  Domain d;
  d.root = s.cone.front().node;
  d.ordered.reserve(c);
  s.rank.resize(c);
  for (std::size_t pos = 0; pos < c; ++pos) {
    d.ordered.push_back(s.cone[s.order[pos]].node);
    s.rank[s.order[pos]] = static_cast<std::uint32_t>(pos);
  }

  // Inputs are identified by their unique (C1-C3) rank in the ordered
  // locality — "the selection process cannot be misinterpreted because
  // of the unique identification of each node input."  Ranking, unlike
  // raw fan-in list order, is invariant under edge re-insertion (e.g. a
  // detector that collapsed decoy operations out of a tampered design).
  crypto::Bitstream stream = carve;
  s.selected.assign(c, 0);
  s.selected[0] = 1;

  // Top-down breadth-first carving: "at least one input to include in the
  // next level ... whether each of the remaining inputs should be
  // included".
  s.queue.assign(1, 0);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const std::span<const std::uint32_t> in = s.inputs_of(s.queue[head]);
    if (in.empty()) continue;
    s.inputs.assign(in.begin(), in.end());
    std::sort(s.inputs.begin(), s.inputs.end(),
              [&s](std::uint32_t a, std::uint32_t b) { return s.rank[a] < s.rank[b]; });
    const std::uint32_t mandatory =
        stream.next_uint(static_cast<std::uint32_t>(s.inputs.size()));
    for (std::uint32_t i = 0; i < s.inputs.size(); ++i) {
      bool include = (i == mandatory);
      if (!include) include = stream.bernoulli(key.keep_num, key.keep_den);
      if (include && s.selected[s.inputs[i]] == 0) {
        s.selected[s.inputs[i]] = 1;
        s.queue.push_back(s.inputs[i]);
      }
    }
  }

  for (const std::uint32_t i : s.order) {
    if (s.selected[i] != 0) d.selected.push_back(s.cone[i].node);
  }
  return d;
}

ConeFingerprint ConeFingerprint::of_cone(const Graph& g,
                                         std::span<const cdfg::ConeNode> cone) {
  return tally_ops(cone, [&g](const cdfg::ConeNode& c) {
    return cdfg::functional_id(g.node(c.node).kind);
  });
}

ConeFingerprint ConeFingerprint::of_ops(std::span<const int> subtree_ops) {
  return tally_ops(subtree_ops, [](int op) { return op; });
}

bool ConeFingerprint::may_hold(const ConeFingerprint& sub) const {
  if (size != kMaxSize && sub.size > size) return false;
  for (std::size_t k = 0; k < count.size(); ++k) {
    if (count[k] != kMaxCount && sub.count[k] > count[k]) return false;
  }
  return true;
}

void record_carves([[maybe_unused]] std::span<const std::size_t> selected_sizes) {
#if LWM_OBS_ENABLED
  if (selected_sizes.empty()) return;
  obs::Histogram::Snapshot batch;
  for (const std::size_t size : selected_sizes) batch.add(size);
  LWM_COUNT("wm/domains_carved", selected_sizes.size());
  static obs::Histogram& sizes = obs::Registry::instance().histogram("wm/domain_size");
  sizes.record(batch);
#endif
}

bool subtree_matches(const Graph& g, const Domain& d,
                     std::span<const int> subtree_ops) {
  return std::ranges::equal(d.selected, subtree_ops, {}, [&g](NodeId n) {
    return cdfg::functional_id(g.node(n).kind);
  });
}

}  // namespace lwm::wm
