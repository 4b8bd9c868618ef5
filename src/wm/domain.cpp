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

/// The carve's edge predicate, applied once when a FaninView is built:
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
void index_cone(const FaninView& view, int tau, CarveScratch& s) {
  const auto c = static_cast<std::uint32_t>(s.cone.size());
  for (std::uint32_t i = 0; i < c; ++i) s.marks.slots[s.cone[i].node.value].value = i;

  // The view's rows are deduplicated, so its in-cone subsequence is the
  // local row.
  s.in_begin.resize(c + 1);
  s.in.clear();
  for (std::uint32_t i = 0; i < c; ++i) {
    s.in_begin[i] = static_cast<std::uint32_t>(s.in.size());
    for (const std::uint32_t p : view.inputs_of(s.cone[i].node)) {
      if (s.marks.has(NodeId{p})) s.in.push_back(s.marks.slots[p].value);
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
  for (std::uint32_t i = 0; i < c; ++i) s.fid[i] = view.fid[s.cone[i].node.value];
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

FaninView FaninView::build(const Graph& g) {
  const std::size_t cap = g.node_capacity();
  FaninView v;
  v.begin.resize(cap + 1);
  v.fid.assign(cap, 0);
  v.src.reserve(g.edge_count());
  // last_dst[m] == n + 1: m already feeds n's row.
  std::vector<std::uint32_t> last_dst(cap, 0);
  for (std::uint32_t n = 0; n < cap; ++n) {
    v.begin[n] = static_cast<std::uint32_t>(v.src.size());
    const NodeId id{n};
    if (!g.is_live(id)) continue;
    v.fid[n] = static_cast<std::uint8_t>(cdfg::functional_id(g.node(id).kind));
    for (const EdgeId e : g.fanin(id)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kCarveFilter.accepts(ed) || last_dst[ed.src.value] == n + 1) continue;
      last_dst[ed.src.value] = n + 1;
      v.src.push_back(ed.src.value);
    }
  }
  v.begin[cap] = static_cast<std::uint32_t>(v.src.size());
  return v;
}

std::vector<NodeId> order_locality(const Graph& g, NodeId root, int tau) {
  const FaninView view = FaninView::build(g);
  CarveScratch& s = thread_scratch();
  gather_cone(view, root, tau, s);
  index_cone(view, tau, s);
  std::vector<std::uint32_t> order(s.cone.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), IdentifierLess{s});
  std::vector<NodeId> out;
  out.reserve(order.size());
  for (const std::uint32_t i : order) out.push_back(s.cone[i].node);
  return out;
}

void gather_cone(const FaninView& view, NodeId root, int tau, CarveScratch& s) {
  if (tau <= 0) {
    throw std::invalid_argument("order_locality: tau must be positive");
  }
  if (!view.is_live(root)) {
    throw std::out_of_range("gather_cone: dead root node");
  }
  // A breadth-first walk whose result doubles as its queue, one distance
  // level at a time.  A level's node set does not depend on the order its
  // predecessor level is expanded in, so sorting each level by id as it
  // completes gives the (distance, NodeId) order.
  s.marks.begin(view.node_capacity());
  s.marks.mark(root);
  s.cone.assign(1, cdfg::ConeNode{root, 0});
  for (std::size_t level = 0; level < s.cone.size();) {
    const int d = s.cone[level].distance;
    if (d >= tau) break;
    const std::size_t end = s.cone.size();
    for (std::size_t head = level; head < end; ++head) {
      for (const std::uint32_t p : view.inputs_of(s.cone[head].node)) {
        if (s.marks.mark(NodeId{p})) s.cone.push_back(cdfg::ConeNode{NodeId{p}, d + 1});
      }
    }
    std::sort(s.cone.begin() + static_cast<std::ptrdiff_t>(end), s.cone.end(),
              [](const cdfg::ConeNode& a, const cdfg::ConeNode& b) {
                return a.node < b.node;
              });
    level = end;
  }
}

Domain select_domain(const FaninView& view, NodeId root,
                     const crypto::Bitstream& carve, const DomainKey& key,
                     CarveScratch* scratch) {
  CarveScratch& s = scratch != nullptr ? *scratch : thread_scratch();
  gather_cone(view, root, key.tau, s);
  (void)carve_cone(view, carve, key, s);
  return order_carve(s);
}

Domain select_domain(const Graph& g, NodeId root, const crypto::Bitstream& carve,
                     const DomainKey& key) {
  return select_domain(FaninView::build(g), root, carve, key);
}

std::optional<ConeFingerprint> carve_cone(const FaninView& view,
                                          const crypto::Bitstream& carve,
                                          const DomainKey& key, CarveScratch& s,
                                          const ConeFingerprint* bound) {
  index_cone(view, key.tau, s);
  const IdentifierLess less{s};

  // T's fingerprint grows with T, and T is cut the moment a field passes
  // the bound's.  Fields saturate, so a saturated bound field never cuts.
  ConeFingerprint t;
  const auto outgrows_bound = [&](std::uint32_t i) {
    const auto k = static_cast<std::size_t>(s.fid[i] - 1);
    if (t.size != ConeFingerprint::kMaxSize) ++t.size;
    if (t.count[k] != ConeFingerprint::kMaxCount) ++t.count[k];
    return bound != nullptr &&
           (t.size > bound->size || t.count[k] > bound->count[k]);
  };

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
  bool cut = outgrows_bound(0);
  for (std::size_t head = 0; head < s.picked.size() && !cut; ++head) {
    const std::span<const std::uint32_t> in = s.inputs_of(s.picked[head]);
    if (in.empty()) continue;
    s.inputs.assign(in.begin(), in.end());
    std::sort(s.inputs.begin(), s.inputs.end(), less);
    const std::uint32_t mandatory =
        stream.next_uint(static_cast<std::uint32_t>(s.inputs.size()));
    for (std::uint32_t i = 0; i < s.inputs.size() && !cut; ++i) {
      bool include = (i == mandatory);
      if (!include) include = stream.bernoulli(key.keep_num, key.keep_den);
      if (include && s.selected[s.inputs[i]] == 0) {
        s.selected[s.inputs[i]] = 1;
        s.picked.push_back(s.inputs[i]);
        cut = outgrows_bound(s.inputs[i]);
      }
    }
  }
  if (cut) {
    ++s.carves_cut;
    return std::nullopt;
  }
  return t;
}

Domain order_carve(CarveScratch& s) {
  std::sort(s.picked.begin(), s.picked.end(), IdentifierLess{s});
  Domain d;
  d.root = s.cone.front().node;
  for (const std::uint32_t i : s.picked) d.selected.push_back(s.cone[i].node);
  return d;
}

ConeFingerprint ConeFingerprint::of_cone(const FaninView& view,
                                         std::span<const cdfg::ConeNode> cone) {
  return tally_ops(cone, [&view](const cdfg::ConeNode& c) {
    return int{view.fid[c.node.value]};
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
  CarveScratch& s = scratch != nullptr ? *scratch : thread_scratch();
  [[maybe_unused]] const std::size_t rows = std::exchange(s.key_rows, 0);
  [[maybe_unused]] const std::size_t cut = std::exchange(s.carves_cut, 0);
#if LWM_OBS_ENABLED
  LWM_COUNT("wm/carve_key_rows", rows);
  if (selected_sizes.empty() && cut == 0) return;
  LWM_COUNT("wm/domains_carved", selected_sizes.size() + cut);
  LWM_COUNT("wm/carves_cut", cut);
  if (selected_sizes.empty()) return;
  obs::Histogram::Snapshot batch;
  for (const std::size_t size : selected_sizes) batch.add(size);
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
