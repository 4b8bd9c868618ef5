#include "sched/enumerate.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"

namespace lwm::sched {

using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

// The closure's ceiling: a positive cycle grows its entries, and this
// keeps them summable without overflow until the diagonal reports it.
constexpr long long kSeparationCap = -kNoSeparation;

/// Counts one independent component's schedules, stopping once `count`
/// reaches `limit`.  Members are in DFS order, each with its tightened
/// window and the ties that bind it to earlier members.  At depth d the
/// starts of members 0..d-1 are fixed and each tie narrows d's window;
/// the last level adds its window width instead of visiting each start.
struct ComponentDfs {
  struct Tie {
    std::size_t k;  ///< the earlier member
    long long s;    ///< its separation to (lower) or from (upper) member d
  };
  std::vector<long long> lo, hi;
  std::vector<std::vector<Tie>> lower, upper;
  std::vector<long long> start;
  std::uint64_t limit = 0;
  std::uint64_t count = 0;

  void run(std::size_t d) {
    long long first = lo[d];
    long long last = hi[d];
    for (const Tie& t : lower[d]) first = std::max(first, start[t.k] + t.s);
    for (const Tie& t : upper[d]) last = std::min(last, start[t.k] - t.s);
    if (first > last) return;
    if (d + 1 == lo.size()) {
      count += static_cast<std::uint64_t>(last - first + 1);
      return;
    }
    for (long long t = first; t <= last && count < limit; ++t) {
      start[d] = t;
      run(d + 1);
    }
  }
};

/// The schedules of `members` (DFS order, indices into the m-member
/// windows and closed matrix), counted up to `limit`.
std::uint64_t count_component(const std::vector<std::size_t>& members,
                              const std::vector<long long>& lo,
                              const std::vector<long long>& hi,
                              const std::vector<long long>& sep,
                              std::uint64_t limit) {
  const std::size_t m = lo.size();
  auto s = [&](std::size_t a, std::size_t b) {
    return sep[members[a] * m + members[b]];
  };
  // A tie between k and d is implied, and skipped, when some j placed
  // between them is tied to both by a chain at least as long: j's own tie
  // (or the later one implying it) then bounds d as tightly.
  auto implied = [&](std::size_t from, std::size_t to, std::size_t k,
                     std::size_t d) {
    for (std::size_t j = k + 1; j < d; ++j) {
      if (s(from, j) != kNoSeparation && s(j, to) != kNoSeparation &&
          s(from, j) + s(j, to) >= s(from, to)) {
        return true;
      }
    }
    return false;
  };
  ComponentDfs dfs;
  dfs.lower.resize(members.size());
  dfs.upper.resize(members.size());
  for (std::size_t d = 0; d < members.size(); ++d) {
    dfs.lo.push_back(lo[members[d]]);
    dfs.hi.push_back(hi[members[d]]);
    for (std::size_t k = 0; k < d; ++k) {
      if (s(k, d) != kNoSeparation && !implied(k, d, k, d)) {
        dfs.lower[d].push_back({k, s(k, d)});
      }
      if (s(d, k) != kNoSeparation && !implied(d, k, k, d)) {
        dfs.upper[d].push_back({k, s(d, k)});
      }
    }
  }
  dfs.start.assign(members.size(), 0);
  dfs.limit = limit;
  dfs.run(0);
  return dfs.count;
}

}  // namespace

EnumerationResult count_separated(std::span<const long long> lo_in,
                                  std::span<const long long> hi_in,
                                  std::span<const long long> sep_in,
                                  std::uint64_t limit) {
  LWM_SPAN("sched/enumerate");
  LWM_COUNT("sched/enum_calls", 1);
  const std::size_t m = lo_in.size();
  if (hi_in.size() != m || sep_in.size() != m * m) {
    throw std::invalid_argument(
        "count_separated: need m windows and m * m separations");
  }

  // Close the matrix: sep(i, j) becomes the longest chain of separations
  // from i to j through members.  A positive diagonal entry is a cycle
  // no schedule can honor.
  std::vector<long long> sep(sep_in.begin(), sep_in.end());
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      const long long ik = sep[i * m + k];
      if (ik == kNoSeparation) continue;
      for (std::size_t j = 0; j < m; ++j) {
        const long long kj = sep[k * m + j];
        if (kj == kNoSeparation) continue;
        long long& ij = sep[i * m + j];
        ij = std::max(ij, std::min(ik + kj, kSeparationCap));
      }
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (sep[i * m + i] > 0) {
      LWM_COUNT("sched/enum_pruned_infeasible", 1);
      return EnumerationResult{0, false};
    }
  }

  // Prune 1 — window tightening.  Over the closed matrix one pass over
  // all pairs reaches the fixed point: lo(j) >= lo(i) + sep(i, j) and
  // hi(i) <= hi(j) - sep(i, j).  The DFS then fails at the shallowest
  // depth a conflict is implied instead of deep in the tree.
  std::vector<long long> lo(lo_in.begin(), lo_in.end());
  std::vector<long long> hi(hi_in.begin(), hi_in.end());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const long long s = sep[i * m + j];
      if (i == j || s == kNoSeparation) continue;
      lo[j] = std::max(lo[j], lo_in[i] + s);
      hi[i] = std::min(hi[i], hi_in[j] - s);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (lo[i] > hi[i]) {
      LWM_COUNT("sched/enum_pruned_window", 1);
      return EnumerationResult{0, false};
    }
  }

  // Prune 2 — factor the members into independent components; unrelated
  // components multiply, so the DFS depth collapses from m to the
  // largest component size.  Each component's members go in DFS order:
  // by tightened earliest start, then index, so predecessors come first.
  std::vector<std::size_t> root(m);
  std::iota(root.begin(), root.end(), 0);
  auto find = [&](std::size_t a) {
    while (root[a] != a) a = root[a] = root[root[a]];
    return a;
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      if (sep[i * m + j] != kNoSeparation || sep[j * m + i] != kNoSeparation) {
        root[find(i)] = find(j);
      }
    }
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return lo[a] < lo[b]; });
  std::vector<std::vector<std::size_t>> components(m);
  for (const std::size_t i : order) components[find(i)].push_back(i);
  std::erase_if(components, [](const auto& c) { return c.empty(); });
  LWM_HIST("sched/enum_components", components.size());

  // The product saturates at the limit; a zero component zeroes it
  // regardless of caps elsewhere.
  std::uint64_t product = 1;
  for (const std::vector<std::size_t>& members : components) {
    const std::uint64_t c =
        std::min(count_component(members, lo, hi, sep, limit), limit);
    if (c == 0) return EnumerationResult{0, false};
    product = product > limit / c ? limit : std::min(product * c, limit);
  }
  if (product >= limit) return EnumerationResult{limit, true};
  return EnumerationResult{product, false};
}

EnumerationResult count_schedules(const Graph& g,
                                  const cdfg::TimingInfo& timing,
                                  std::span<const NodeId> subset,
                                  std::span<const ExtraPrecedence> extra,
                                  std::uint64_t limit) {
  // Index the members (first occurrence wins) and the largest member
  // ASAP: a node on a path between two members starts no later than the
  // later of them, so no walk needs to enter a node past it.
  thread_local cdfg::NodeMarks marks;
  marks.begin(g.node_capacity());
  std::vector<NodeId> region;  // members first, then nodes the walks may reach
  int horizon = 0;
  for (const NodeId n : subset) {
    if (!g.is_live(n)) {
      throw std::out_of_range("count_schedules: dead node in subset");
    }
    if (!marks.mark(n)) continue;
    marks.slots[n.value].value = static_cast<std::uint32_t>(region.size());
    region.push_back(n);
    horizon = std::max(horizon, timing.asap[n.value]);
  }
  const std::size_t m = region.size();
  const EdgeFilter spec = EdgeFilter::specification();
  for (std::size_t head = 0; head < region.size(); ++head) {
    for (const EdgeId e : g.fanout(region[head])) {
      const cdfg::Edge& ed = g.edge(e);
      if (!spec.accepts(ed) || timing.asap[ed.dst.value] > horizon) continue;
      if (!marks.mark(ed.dst)) continue;
      marks.slots[ed.dst.value].value =
          static_cast<std::uint32_t>(region.size());
      region.push_back(ed.dst);
    }
  }
  auto local = [&](NodeId n) { return marks.slots[n.value].value; };
  auto in_region = [&](const cdfg::Edge& ed) {
    return spec.accepts(ed) && marks.has(ed.dst);
  };

  // The region in topological order (Kahn), for the longest-path walks.
  const std::size_t r = region.size();
  std::vector<std::uint32_t> indegree(r, 0);
  for (const NodeId n : region) {
    for (const EdgeId e : g.fanout(n)) {
      if (in_region(g.edge(e))) ++indegree[local(g.edge(e).dst)];
    }
  }
  std::vector<std::uint32_t> topo;
  topo.reserve(r);
  for (std::uint32_t i = 0; i < r; ++i) {
    if (indegree[i] == 0) topo.push_back(i);
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (const EdgeId e : g.fanout(region[topo[head]])) {
      const cdfg::Edge& ed = g.edge(e);
      if (in_region(ed) && --indegree[local(ed.dst)] == 0) {
        topo.push_back(local(ed.dst));
      }
    }
  }

  // One forward longest-path walk per member over the region.
  std::vector<long long> sep(m * m, kNoSeparation);
  std::vector<long long> dist(r);
  [[maybe_unused]] std::uint64_t touched = 0;
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(dist.begin(), dist.end(), kNoSeparation);
    dist[i] = 0;
    for (const std::uint32_t u : topo) {
      if (dist[u] == kNoSeparation) continue;
      ++touched;
      const long long out = dist[u] + g.node(region[u]).delay;
      for (const EdgeId e : g.fanout(region[u])) {
        const cdfg::Edge& ed = g.edge(e);
        if (!in_region(ed)) continue;
        long long& d = dist[local(ed.dst)];
        d = std::max(d, out);
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j != i) sep[i * m + j] = dist[j];
    }
  }
  LWM_COUNT("sched/enum_walk_nodes", touched);

  auto member = [&](NodeId n) {
    return g.is_live(n) && marks.has(n) && local(n) < m;
  };
  for (const ExtraPrecedence& x : extra) {
    if (!member(x.before) || !member(x.after)) {
      throw std::invalid_argument(
          "count_schedules: extra precedence endpoint outside the subset");
    }
    long long& s = sep[local(x.before) * m + local(x.after)];
    s = std::max(s, static_cast<long long>(g.node(x.before).delay));
  }
  // The extras must keep the members' precedence relation acyclic.
  std::vector<std::uint32_t> pending(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (sep[i * m + j] != kNoSeparation) ++pending[j];
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t j = 0; j < m; ++j) {
    if (pending[j] == 0) ready.push_back(j);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    for (std::size_t j = 0; j < m; ++j) {
      if (sep[ready[head] * m + j] != kNoSeparation && --pending[j] == 0) {
        ready.push_back(j);
      }
    }
  }
  if (ready.size() != m) {
    throw std::runtime_error(
        "count_schedules: combined precedence relation is cyclic");
  }

  std::vector<long long> lo(m), hi(m);
  for (std::size_t i = 0; i < m; ++i) {
    lo[i] = timing.asap[region[i].value];
    hi[i] = timing.alap[region[i].value];
  }
  return count_separated(lo, hi, sep, limit);
}

}  // namespace lwm::sched
