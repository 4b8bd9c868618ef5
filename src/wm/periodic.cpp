#include "wm/periodic.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "wm/pc.h"

namespace lwm::wm {

using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

// Token-weighted edge weight: the periodic constraint
//   start(dst) + II * tokens >= start(src) + delay(src)
// rearranges to start(dst) >= start(src) + w with w = delay - II*tokens.
long long edge_weight(const Graph& g, const cdfg::Edge& ed, int ii) {
  return static_cast<long long>(g.node(ed.src).delay) -
         static_cast<long long>(ii) * ed.tokens;
}

constexpr long long kNegInf = LLONG_MIN / 4;

// Longest token-weighted distance from `src` to every node, or kNegInf
// when unconstrained.  Bellman-Ford over live edges; converges within
// node_count passes because compute_periodic_timing has already
// certified that no positive-weight cycle exists at this II.
std::vector<long long> longest_from(const Graph& g, NodeId src, int ii,
                                    EdgeFilter filter) {
  std::vector<long long> dist(g.node_capacity(), kNegInf);
  dist[src.value] = 0;
  const std::size_t passes = g.node_count() + 1;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (dist[ed.src.value] == kNegInf) continue;
      const long long cand = dist[ed.src.value] + edge_weight(g, ed, ii);
      if (cand > dist[ed.dst.value]) {
        dist[ed.dst.value] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

/// The caller's counting windows, or a fresh pass into `own`.
const PeriodicTiming& counting_windows(const Graph& g, int ii,
                                       const PeriodicTiming* windows,
                                       std::optional<PeriodicTiming>& own) {
  if (windows != nullptr) return *windows;
  own = compute_periodic_timing(g, ii, -1, periodic_counting_filter());
  return *own;
}

}  // namespace

EdgeFilter periodic_counting_filter() {
  EdgeFilter f = EdgeFilter::specification();
  f.token = true;
  return f;
}

PeriodicTiming compute_periodic_timing(const Graph& g, int ii, int span,
                                       EdgeFilter filter) {
  if (ii <= 0) {
    throw std::invalid_argument("compute_periodic_timing: ii must be >= 1, got " +
                                std::to_string(ii));
  }
  LWM_COUNT("cdfg/timing_passes", 1);
  PeriodicTiming t;
  t.ii = ii;
  const std::size_t cap = g.node_capacity();

  // Earliest flat starts: fixed point of the token-weighted relaxation,
  // floored at 0 (iteration-0 offsets are nonnegative).  A pass count
  // beyond node_count still producing changes certifies a positive-
  // weight cycle — II below the recurrence bound.
  std::vector<long long> est(cap, 0);
  const std::size_t passes = g.node_count() + 1;
  bool changed = true;
  for (std::size_t pass = 0; pass < passes && changed; ++pass) {
    changed = false;
    for (EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      const long long cand = est[ed.src.value] + edge_weight(g, ed, ii);
      if (cand > est[ed.dst.value]) {
        est[ed.dst.value] = cand;
        changed = true;
      }
    }
  }
  if (changed) {
    throw std::runtime_error(
        "compute_periodic_timing: no periodic schedule exists for '" +
        g.name() + "' at II=" + std::to_string(ii) +
        " (a token-weighted cycle has positive weight; raise II to the "
        "recurrence bound)");
  }

  // Minimum feasible flat makespan at this II.
  long long crit = 0;
  for (NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    crit = std::max(crit, est[n.value] + g.node(n).delay);
  }
  t.critical_span = static_cast<int>(crit);
  if (span < 0) {
    span = t.critical_span;
  } else if (span < t.critical_span) {
    throw std::invalid_argument(
        "compute_periodic_timing: span " + std::to_string(span) +
        " below the minimum feasible flat makespan " +
        std::to_string(t.critical_span) + " at II=" + std::to_string(ii));
  }
  t.span = span;

  // Latest flat starts within `span`: backward fixed point.  Feasibility
  // (lstart >= estart everywhere) follows from span >= critical_span —
  // the earliest-start schedule itself fits the bound.
  std::vector<long long> lst(cap, 0);
  for (NodeId n : g.nodes()) {
    lst[n.value] = static_cast<long long>(span) - g.node(n).delay;
  }
  changed = true;
  for (std::size_t pass = 0; pass < passes && changed; ++pass) {
    changed = false;
    for (EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      const long long cand = lst[ed.dst.value] - edge_weight(g, ed, ii);
      if (cand < lst[ed.src.value]) {
        lst[ed.src.value] = cand;
        changed = true;
      }
    }
  }

  t.estart.assign(cap, -1);
  t.lstart.assign(cap, -1);
  for (NodeId n : g.nodes()) {
    t.estart[n.value] = static_cast<int>(est[n.value]);
    t.lstart[n.value] = static_cast<int>(lst[n.value]);
  }
  return t;
}

PeriodicPsi periodic_psi_counts(const Graph& g, const SchedWatermark& wm,
                                int ii, const sched::EnumerationOptions& opts,
                                const PeriodicTiming* windows) {
  LWM_SPAN("wm/periodic_psi");
  const EdgeFilter filter = periodic_counting_filter();
  std::optional<PeriodicTiming> own;
  const PeriodicTiming& timing =
      opts.latency < 0
          ? counting_windows(g, ii, windows, own)
          : own.emplace(compute_periodic_timing(g, ii, opts.latency, filter));

  // Enumerate over the executable members of the carved subtree, the
  // same subset the flat counters use.
  std::vector<NodeId> subset;
  for (const NodeId n : wm.subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  PeriodicPsi psi;
  if (subset.empty()) {
    psi.psi_w = psi.psi_n = 1;
    return psi;
  }

  // Pairwise token-weighted separation matrix over the subset: sep[i][j]
  // is the minimum required start(j) - start(i), kNegInf when the graph
  // leaves the pair free.  Paths through nodes outside the subset are
  // captured here, so the DFS below needs only direct pairwise checks.
  const std::size_t m = subset.size();
  std::vector<std::vector<long long>> sep(m);
  std::vector<std::size_t> index_of(g.node_capacity(), m);
  for (std::size_t i = 0; i < m; ++i) index_of[subset[i].value] = i;
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<long long> dist = longest_from(g, subset[i], ii, filter);
    sep[i].resize(m, kNegInf);
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      sep[i][j] = dist[subset[j].value];
    }
  }

  // The watermark's temporal constraints, taken modulo II — i.e. as flat
  // separations start(dst) >= start(src) + delay(src).  Constraints whose
  // endpoints fall outside the enumerated subset are skipped (they can
  // only shrink psi_w; skipping over-reports P_c, the safe direction).
  // Chains among subset members need no transitive closure: every member
  // is assigned a start, so each hop is checked directly.
  std::vector<std::vector<long long>> wsep = sep;
  for (const TemporalConstraint& c : wm.constraints) {
    const std::size_t i = index_of[c.src.value];
    const std::size_t j = index_of[c.dst.value];
    if (i >= m || j >= m || i == j) continue;
    wsep[i][j] = std::max(wsep[i][j],
                          static_cast<long long>(g.node(c.src).delay));
  }

  // Deterministic DFS order: by (estart, id) — earliest windows first.
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int ea = timing.estart[subset[a].value];
    const int eb = timing.estart[subset[b].value];
    if (ea != eb) return ea < eb;
    return subset[a] < subset[b];
  });

  const std::uint64_t limit = opts.limit;
  std::vector<long long> start(m, 0);
  // Counts assignments of flat starts to `order[pos..]` given the starts
  // already fixed for order[0..pos); saturates at `limit`.
  auto count = [&](const std::vector<std::vector<long long>>& s,
                   auto&& self, std::size_t pos,
                   std::uint64_t acc) -> std::uint64_t {
    if (pos == m) return acc + 1;
    const std::size_t cur = order[pos];
    const NodeId n = subset[cur];
    long long lo = timing.estart[n.value];
    long long hi = timing.lstart[n.value];
    for (std::size_t k = 0; k < pos; ++k) {
      const std::size_t prev = order[k];
      if (s[prev][cur] != kNegInf) {
        lo = std::max(lo, start[prev] + s[prev][cur]);
      }
      if (s[cur][prev] != kNegInf) {
        hi = std::min(hi, start[prev] - s[cur][prev]);
      }
    }
    for (long long tstep = lo; tstep <= hi; ++tstep) {
      start[cur] = tstep;
      acc = self(s, self, pos + 1, acc);
      if (limit != 0 && acc >= limit) return acc;
    }
    return acc;
  };

  psi.psi_n = count(sep, count, 0, 0);
  psi.psi_w = count(wsep, count, 0, 0);
  psi.saturated = limit != 0 && (psi.psi_n >= limit || psi.psi_w >= limit);
  LWM_COUNT("wm/periodic_psi_evals", 2);
  return psi;
}

PcEstimate sched_pc_periodic(const Graph& g, const SchedWatermark& wm, int ii,
                             const sched::EnumerationOptions& opts,
                             const PeriodicTiming* windows) {
  LWM_SPAN("wm/pc_periodic");
  const PeriodicPsi psi = periodic_psi_counts(g, wm, ii, opts, windows);
  if (psi.saturated || psi.psi_n == 0) {
    // Too large to enumerate (or an empty space) — closed form instead.
    const SchedWatermark marks[] = {wm};
    return sched_pc_periodic_poisson(g, marks, ii, windows);
  }
  PcEstimate est;
  est.exact = true;
  if (psi.psi_w == 0) {
    est.degenerate = true;
    // Zero coincidence within the bound; a floor instead of -inf,
    // mirroring sched_pc_exact.
    est.log10_pc = -std::log10(static_cast<double>(psi.psi_n)) - 1.0;
  } else {
    est.log10_pc = std::log10(static_cast<double>(psi.psi_w)) -
                   std::log10(static_cast<double>(psi.psi_n));
  }
  return est;
}

PcEstimate sched_pc_periodic_poisson(const Graph& g,
                                     std::span<const SchedWatermark> marks,
                                     int ii, const PeriodicTiming* windows) {
  LWM_SPAN("wm/pc_periodic_poisson");
  std::optional<PeriodicTiming> own;
  const PeriodicTiming& pt = counting_windows(g, ii, windows, own);
  // The closed-form order probability reads only [asap, alap] windows and
  // delays, so periodic windows slot straight in via a pseudo-TimingInfo.
  cdfg::TimingInfo flat;
  flat.asap = pt.estart;
  flat.alap = pt.lstart;
  flat.critical_path = pt.critical_span;
  flat.latency = pt.span;
  PcEstimate est;
  est.exact = false;
  double lambda = 0.0;
  for (const SchedWatermark& wm : marks) {
    for (const TemporalConstraint& c : wm.constraints) {
      const double p = edge_order_probability(flat, g, c.src, c.dst);
      if (p <= 0.0) {
        // Unsatisfiable by a free periodic schedule: a full expected
        // violation, same convention as the flat Poisson model.
        est.degenerate = true;
        lambda += 1.0;
        continue;
      }
      lambda += 1.0 - p;
    }
  }
  est.log10_pc = -lambda / std::log(10.0);
  return est;
}

}  // namespace lwm::wm
