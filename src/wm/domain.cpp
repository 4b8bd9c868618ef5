#include "wm/domain.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

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

/// Indexes the cone gathered into `s` at `tau`: local CSR, op ids and C1
/// levels.  C2/C3 rows are left to key_row.
void index_cone(const Graph& g, int tau, CarveScratch& s) {
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

  s.tau = static_cast<std::size_t>(tau);
  s.fid.resize(c);
  for (std::uint32_t i = 0; i < c; ++i) {
    s.fid[i] = cdfg::functional_id(g.node(s.cone[i].node).kind);
  }
  s.cone_size.assign(c * s.tau, 0);
  s.cone_phi.assign(c * s.tau, 0);
  s.row_ready.assign(c, 0);
  s.seen.assign(c, 0);
  s.dist.resize(c);
}

/// Member `i`'s C2/C3 row, computed on first use: one stamped BFS over
/// the local CSR buckets every reached node by its distance; a prefix sum
/// over x turns the buckets into K(x) and phi(x) (phi counts the node
/// itself at every x).
void key_row(CarveScratch& s, std::uint32_t i) {
  if (s.row_ready[i] != 0) return;
  s.row_ready[i] = 1;
  ++s.key_rows;
  const std::size_t t = s.tau;
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

/// The unique-identifier order over local indices of the cone indexed in
/// `s`, C1 → C2 → C3 → discovery.  K(0) is a member's local CSR row
/// length, so only a tie on C1 and K(0) computes the two C2/C3 rows.
struct IdentifierLess {
  CarveScratch& s;

  bool operator()(std::uint32_t a, std::uint32_t b) const {
    if (s.level[a] != s.level[b]) return s.level[a] > s.level[b];  // C1: deeper first
    const std::uint32_t ka = s.in_begin[a + 1] - s.in_begin[a];
    const std::uint32_t kb = s.in_begin[b + 1] - s.in_begin[b];
    if (ka != kb) return ka > kb;  // C2 at x = 0
    key_row(s, a);
    key_row(s, b);
    const std::size_t t = s.tau;
    const int* sa = s.cone_size.data() + a * t;
    const int* sb = s.cone_size.data() + b * t;
    for (std::size_t x = 1; x < t; ++x) {  // C2 at growing x
      if (sa[x] != sb[x]) return sa[x] > sb[x];
    }
    const long long* pa = s.cone_phi.data() + a * t;
    const long long* pb = s.cone_phi.data() + b * t;
    for (std::size_t x = 0; x < t; ++x) {  // C3 at growing x
      if (pa[x] != pb[x]) return pa[x] > pb[x];
    }
    return a < b;  // structural tie-break: discovery position
  }
};

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
  index_cone(g, tau, s);
  std::vector<std::uint32_t> order(s.cone.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), IdentifierLess{s});
  std::vector<NodeId> out;
  out.reserve(order.size());
  for (const std::uint32_t i : order) out.push_back(s.cone[i].node);
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
  (void)carve_cone(g, carve, key, s);
  return order_carve(s);
}

ConeFingerprint carve_cone(const Graph& g, const crypto::Bitstream& carve,
                           const DomainKey& key, CarveScratch& s) {
  index_cone(g, key.tau, s);
  const IdentifierLess less{s};

  // Inputs are ordered by their unique (C1-C3) identifier — "the
  // selection process cannot be misinterpreted because of the unique
  // identification of each node input."  Unlike raw fan-in list order, it
  // is invariant under edge re-insertion (e.g. a detector that collapsed
  // decoy operations out of a tampered design).
  crypto::Bitstream stream = carve;
  s.selected.assign(s.cone.size(), 0);
  s.selected[0] = 1;

  // Top-down breadth-first carving: "at least one input to include in the
  // next level ... whether each of the remaining inputs should be
  // included".  `picked` is the breadth-first queue.
  s.picked.assign(1, 0);
  for (std::size_t head = 0; head < s.picked.size(); ++head) {
    const std::span<const std::uint32_t> in = s.inputs_of(s.picked[head]);
    if (in.empty()) continue;
    s.inputs.assign(in.begin(), in.end());
    std::sort(s.inputs.begin(), s.inputs.end(), less);
    const std::uint32_t mandatory =
        stream.next_uint(static_cast<std::uint32_t>(s.inputs.size()));
    for (std::uint32_t i = 0; i < s.inputs.size(); ++i) {
      bool include = (i == mandatory);
      if (!include) include = stream.bernoulli(key.keep_num, key.keep_den);
      if (include && s.selected[s.inputs[i]] == 0) {
        s.selected[s.inputs[i]] = 1;
        s.picked.push_back(s.inputs[i]);
      }
    }
  }
  return tally_ops(std::span<const std::uint32_t>(s.picked),
                   [&s](std::uint32_t i) { return s.fid[i]; });
}

Domain order_carve(CarveScratch& s) {
  std::sort(s.picked.begin(), s.picked.end(), IdentifierLess{s});
  Domain d;
  d.root = s.cone.front().node;
  for (const std::uint32_t i : s.picked) d.selected.push_back(s.cone[i].node);
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

void record_carves([[maybe_unused]] std::span<const std::size_t> selected_sizes,
                   CarveScratch* scratch) {
  [[maybe_unused]] const std::size_t rows =
      std::exchange((scratch != nullptr ? *scratch : thread_scratch()).key_rows, 0);
#if LWM_OBS_ENABLED
  LWM_COUNT("wm/carve_key_rows", rows);
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
