#include "sched/modulo.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sched/list_sched.h"

namespace lwm::sched {

using cdfg::Edge;
using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

/// IMS effort: scheduling operations stop after kBudgetRatio * ops
/// placements per candidate II, then the search moves to II + 1.
constexpr long long kBudgetRatio = 8;

/// Occupancy of one op on its functional unit — must match the flat
/// verifier (schedule.cpp): pipelined units hold only the issue slot.
int occupancy(const cdfg::Node& node, bool pipelined) {
  return pipelined ? 1 : node.delay;
}

/// True when a periodic potential assignment exists at interval `ii`:
/// no cycle of the filtered graph has positive weight under
/// w(e) = delay(src) - ii * tokens.  Longest-path fixed point with a
/// pass cap of |V| (Bellman-Ford bound); still relaxing afterwards
/// means a positive cycle.
bool ii_feasible(const Graph& g, const std::vector<NodeId>& nodes,
                 EdgeFilter filter, int ii) {
  std::vector<long long> pot(g.node_capacity(), 0);
  const std::size_t passes = nodes.size() + 1;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (NodeId n : nodes) {
      const long long base = pot[n.value] + g.node(n).delay;
      for (EdgeId e : g.fanout(n)) {
        const Edge& ed = g.edge(e);
        if (!filter.accepts(ed)) continue;
        const long long w = base - static_cast<long long>(ii) * ed.tokens;
        if (w > pot[ed.dst.value]) {
          pot[ed.dst.value] = w;
          changed = true;
        }
      }
    }
    if (!changed) return true;
  }
  return false;
}

/// Modulo reservation table: per-class usage count of every modulo slot.
class Mrt {
 public:
  Mrt(int ii, const ResourceSet& res) : ii_(ii), res_(&res) {
    use_.assign(static_cast<std::size_t>(cdfg::kNumUnitClasses) *
                    static_cast<std::size_t>(ii),
                0);
  }

  [[nodiscard]] bool fits(cdfg::UnitClass c, int start, int occ) const {
    if (!res_->is_limited(c) || occ <= 0) return true;
    const int limit = res_->count(c);
    // occ >= ii wraps: each slot absorbs floor(occ/ii) full laps plus
    // one more on the first occ % ii slots.
    const int laps = occ / ii_;
    const int rem = occ % ii_;
    for (int i = 0; i < ii_; ++i) {
      const int extra = laps + (in_window(start, rem, i) ? 1 : 0);
      if (extra == 0) continue;
      if (at(c, i) + extra > limit) return false;
    }
    return true;
  }

  void add(cdfg::UnitClass c, int start, int occ, int sign) {
    if (!res_->is_limited(c) || occ <= 0) return;
    const int laps = occ / ii_;
    const int rem = occ % ii_;
    for (int i = 0; i < ii_; ++i) {
      at(c, i) += sign * (laps + (in_window(start, rem, i) ? 1 : 0));
    }
  }

 private:
  [[nodiscard]] bool in_window(int start, int rem, int slot) const {
    if (rem == 0) return false;
    const int s = start % ii_;
    const int d = (slot - s + ii_) % ii_;
    return d < rem;
  }
  [[nodiscard]] int& at(cdfg::UnitClass c, int slot) {
    return use_[static_cast<std::size_t>(c) * static_cast<std::size_t>(ii_) +
                static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] int at(cdfg::UnitClass c, int slot) const {
    return use_[static_cast<std::size_t>(c) * static_cast<std::size_t>(ii_) +
                static_cast<std::size_t>(slot)];
  }

  int ii_;
  const ResourceSet* res_;
  std::vector<int> use_;
};

/// Height-based scheduling priority at interval `ii`: H(n) is a fixed
/// point of H(n) = max over out-edges of H(dst) + delay(n) - ii*tokens,
/// floored at delay(n) — ops on recurrences rank first.
std::vector<long long> priority_heights(const Graph& g,
                                        const std::vector<NodeId>& nodes,
                                        EdgeFilter filter, int ii) {
  std::vector<long long> h(g.node_capacity(), 0);
  for (NodeId n : nodes) h[n.value] = g.node(n).delay;
  const std::size_t passes = nodes.size() + 1;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      const NodeId n = *it;
      const long long d = g.node(n).delay;
      for (EdgeId e : g.fanout(n)) {
        const Edge& ed = g.edge(e);
        if (!filter.accepts(ed)) continue;
        const long long cand =
            h[ed.dst.value] + d - static_cast<long long>(ii) * ed.tokens;
        if (cand > h[n.value]) {
          h[n.value] = cand;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return h;
}

/// One IMS attempt at a fixed II.  Returns true and fills `out` on
/// success within the placement budget.
bool try_schedule_at_ii(const Graph& g, const std::vector<NodeId>& nodes,
                        const ModuloOptions& opts, int ii, Schedule* out) {
  const EdgeFilter& filter = opts.filter;
  const std::vector<long long> height = priority_heights(g, nodes, filter, ii);

  // Unscheduled sentinel is INT_MIN so "previous placement" forcing can
  // distinguish never-placed from placed-at-0.
  constexpr int kNever = std::numeric_limits<int>::min();
  std::vector<int> start(g.node_capacity(), kNever);
  std::vector<int> prev_start(g.node_capacity(), kNever);
  Mrt mrt(ii, opts.resources);

  // Worklist ordered by (height desc, NodeId asc) — deterministic.
  auto better = [&](NodeId a, NodeId b) {
    if (height[a.value] != height[b.value]) {
      return height[a.value] > height[b.value];
    }
    return a < b;
  };
  std::vector<NodeId> work = nodes;
  std::sort(work.begin(), work.end(), better);

  long long budget = kBudgetRatio * static_cast<long long>(nodes.size());
  std::size_t scheduled = 0;

  while (scheduled < nodes.size()) {
    if (budget-- <= 0) return false;
    // Highest-priority unscheduled op.  Linear scan: kernels are small
    // and eviction makes a heap awkward to keep consistent.
    NodeId n{};
    bool found = false;
    for (NodeId c : work) {
      if (start[c.value] != kNever && !found) continue;
      if (start[c.value] == kNever && (!found || better(c, n))) {
        n = c;
        found = true;
      }
    }
    if (!found) break;

    // estart from scheduled predecessors (loop-carried slack included).
    long long estart = 0;
    for (EdgeId e : g.fanin(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (start[ed.src.value] == kNever) continue;
      const long long lb = static_cast<long long>(start[ed.src.value]) +
                           g.node(ed.src).delay -
                           static_cast<long long>(ii) * ed.tokens;
      estart = std::max(estart, lb);
    }

    const cdfg::Node& node = g.node(n);
    const cdfg::UnitClass uc = cdfg::unit_class(node.kind);
    const int occ = occupancy(node, opts.pipelined_units);

    int chosen = -1;
    for (int t = static_cast<int>(estart); t < estart + ii; ++t) {
      if (mrt.fits(uc, t, occ)) {
        chosen = t;
        break;
      }
    }
    bool forced = false;
    if (chosen < 0) {
      // Rau's forcing rule: never re-place at or before the previous
      // spot, so repeated evictions make progress.
      chosen = static_cast<int>(estart);
      if (prev_start[n.value] != kNever && chosen <= prev_start[n.value]) {
        chosen = prev_start[n.value] + 1;
      }
      forced = true;
    }

    // Evict (a) successors whose dependence the new placement violates,
    // (b) on a forced placement, every op whose MRT slots collide.
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (start[ed.dst.value] == kNever || ed.dst == n) continue;
      const long long need = static_cast<long long>(chosen) + node.delay -
                             static_cast<long long>(ii) * ed.tokens;
      if (start[ed.dst.value] < need) {
        const cdfg::Node& v = g.node(ed.dst);
        mrt.add(cdfg::unit_class(v.kind), start[ed.dst.value],
                occupancy(v, opts.pipelined_units), -1);
        start[ed.dst.value] = kNever;
        --scheduled;
      }
    }
    if (forced) {
      // Evict same-class ops until the chosen slot group has room.
      for (NodeId m : work) {
        if (mrt.fits(uc, chosen, occ)) break;
        if (m == n || start[m.value] == kNever) continue;
        const cdfg::Node& v = g.node(m);
        if (cdfg::unit_class(v.kind) != uc) continue;
        mrt.add(uc, start[m.value], occupancy(v, opts.pipelined_units), -1);
        start[m.value] = kNever;
        --scheduled;
      }
      if (!mrt.fits(uc, chosen, occ)) {
        // Even an empty MRT cannot host this op at this II (occupancy
        // exceeds ii * unit count): the candidate II is a dead end.
        return false;
      }
    }

    mrt.add(uc, chosen, occ, +1);
    start[n.value] = chosen;
    prev_start[n.value] = chosen;
    ++scheduled;
  }

  if (scheduled != nodes.size()) return false;

  // Normalize to non-negative flat starts (forcing can push everything
  // up, never below zero — estart is floored at 0 — but stay safe).
  int lo = 0;
  for (NodeId n : nodes) lo = std::min(lo, start[n.value]);
  Schedule s(g);
  for (NodeId n : nodes) s.set_start(n, start[n.value] - lo);
  *out = std::move(s);
  return true;
}

}  // namespace

int resource_min_ii(const Graph& g, const ResourceSet& res,
                    bool pipelined_units) {
  std::array<long long, cdfg::kNumUnitClasses> demand{};
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    demand[static_cast<std::size_t>(cdfg::unit_class(node.kind))] +=
        occupancy(node, pipelined_units);
  }
  int mii = 1;
  for (std::size_t c = 0; c < cdfg::kNumUnitClasses; ++c) {
    const auto uc = static_cast<cdfg::UnitClass>(c);
    if (!res.is_limited(uc) || demand[c] == 0) continue;
    const int k = res.count(uc);
    if (k == 0) {
      throw std::invalid_argument(
          "resource_min_ii: zero units of class " +
          std::string(cdfg::unit_class_name(uc)) + " but ops need them");
    }
    mii = std::max(mii, static_cast<int>((demand[c] + k - 1) / k));
  }
  return mii;
}

int recurrence_min_ii(const Graph& g, EdgeFilter filter) {
  const std::vector<NodeId> nodes = [&] {
    std::vector<NodeId> v;
    v.reserve(g.node_count());
    for (NodeId n : g.nodes()) v.push_back(n);
    return v;
  }();
  // Upper bound: total delay — any simple cycle's delay sum divided by
  // its (>= 1) token sum cannot exceed it.
  long long hi = 1;
  for (NodeId n : nodes) hi += g.node(n).delay;
  if (!ii_feasible(g, nodes, filter, static_cast<int>(std::min<long long>(
                                         hi, std::numeric_limits<int>::max())))) {
    throw std::runtime_error(
        "recurrence_min_ii: token-free positive cycle in '" + g.name() +
        "' — not a valid marked graph under this filter");
  }
  long long lo = 1;
  while (lo < hi) {
    const long long mid = lo + (hi - lo) / 2;
    if (ii_feasible(g, nodes, filter, static_cast<int>(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<int>(lo);
}

ModuloResult modulo_schedule(const Graph& g, const ModuloOptions& opts) {
  LWM_SPAN("sched/modulo");
  ModuloResult r;
  r.res_mii = resource_min_ii(g, opts.resources, opts.pipelined_units);
  r.rec_mii = recurrence_min_ii(g, opts.filter);
  r.min_ii = std::max(r.res_mii, r.rec_mii);

  std::vector<NodeId> nodes;
  nodes.reserve(g.node_count());
  for (NodeId n : g.nodes()) nodes.push_back(n);

  // Always-feasible ceiling: list-schedule the acyclic skeleton (token
  // edges filtered out) and repeat it every `length` steps — every
  // loop-carried edge with k >= 1 tokens gets k * length >= the whole
  // iteration's makespan of slack.
  EdgeFilter skeleton = opts.filter;
  skeleton.token = false;
  ListScheduleOptions lopts;
  lopts.resources = opts.resources;
  lopts.filter = skeleton;
  lopts.pipelined_units = opts.pipelined_units;
  const Schedule flat = list_schedule(g, lopts);
  const int flat_len = std::max(1, flat.length(g));

  const int lo = opts.min_ii > 0 ? std::max(opts.min_ii, r.min_ii) : r.min_ii;
  const int hi = opts.max_ii > 0 ? opts.max_ii
                                 : std::max(lo, flat_len);

  for (int ii = lo; ii <= hi; ++ii) {
    Schedule s;
    if (try_schedule_at_ii(g, nodes, opts, ii, &s)) {
      const ScheduleCheck check = verify_periodic_schedule(
          g, s, ii, opts.filter, opts.resources, opts.pipelined_units);
      if (check.ok) {
        r.schedule = std::move(s);
        r.ii = ii;
        r.length = r.schedule.length(g);
        LWM_COUNT("sched/modulo_scheduled", 1);
        LWM_HIST("sched/modulo_ii_over_min", ii - r.min_ii);
        return r;
      }
    }
    LWM_COUNT("sched/modulo_ii_retries", 1);
  }

  // Budget exhausted everywhere: fall back to the flat skeleton
  // schedule at II = flat_len, which is always legal (see above).
  r.schedule = flat;
  r.ii = std::max(flat_len, r.min_ii);
  r.length = flat_len;
  LWM_COUNT("sched/modulo_fallback", 1);
  return r;
}

ScheduleCheck verify_periodic_schedule(const Graph& g, const Schedule& s,
                                       int ii, EdgeFilter filter,
                                       const ResourceSet& res,
                                       bool pipelined_units) {
  ScheduleCheck check;
  if (ii <= 0) {
    check.fail("initiation interval must be positive, got " +
               std::to_string(ii));
    return check;
  }
  for (NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    if (!s.is_scheduled(n)) {
      check.fail("operation '" + g.node(n).name + "' is unscheduled");
    } else if (s.start_of(n) < 0) {
      check.fail("operation '" + g.node(n).name + "' starts at negative step " +
                 std::to_string(s.start_of(n)));
    }
  }
  for (EdgeId e : g.edges()) {
    const Edge& ed = g.edge(e);
    if (!filter.accepts(ed)) continue;
    if (!s.is_scheduled(ed.src) || !s.is_scheduled(ed.dst)) continue;
    const long long lhs = static_cast<long long>(s.start_of(ed.dst)) +
                          static_cast<long long>(ii) * ed.tokens;
    const long long rhs =
        static_cast<long long>(s.start_of(ed.src)) + g.node(ed.src).delay;
    if (lhs < rhs) {
      check.fail("edge '" + g.node(ed.src).name + "' -> '" +
                 g.node(ed.dst).name + "' (" + std::to_string(ed.tokens) +
                 " tokens) violated at II=" + std::to_string(ii) + ": " +
                 std::to_string(s.start_of(ed.dst)) + " + " +
                 std::to_string(ii) + "*" + std::to_string(ed.tokens) +
                 " < " + std::to_string(s.start_of(ed.src)) + " + " +
                 std::to_string(g.node(ed.src).delay));
    }
  }
  // MRT occupancy per modulo slot.
  std::vector<int> use(static_cast<std::size_t>(cdfg::kNumUnitClasses) *
                           static_cast<std::size_t>(ii),
                       0);
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind) || !s.is_scheduled(n)) continue;
    const cdfg::UnitClass uc = cdfg::unit_class(node.kind);
    if (!res.is_limited(uc)) continue;
    const int occ = occupancy(node, pipelined_units);
    for (int i = 0; i < occ; ++i) {
      const int slot = (s.start_of(n) + i) % ii;
      ++use[static_cast<std::size_t>(uc) * static_cast<std::size_t>(ii) +
            static_cast<std::size_t>(slot)];
    }
  }
  for (std::size_t c = 0; c < cdfg::kNumUnitClasses; ++c) {
    const auto uc = static_cast<cdfg::UnitClass>(c);
    if (!res.is_limited(uc)) continue;
    for (int slot = 0; slot < ii; ++slot) {
      const int u = use[c * static_cast<std::size_t>(ii) +
                        static_cast<std::size_t>(slot)];
      if (u > res.count(uc)) {
        check.fail("modulo slot " + std::to_string(slot) + " uses " +
                   std::to_string(u) + " units of class " +
                   std::string(cdfg::unit_class_name(uc)) + " (limit " +
                   std::to_string(res.count(uc)) + ")");
      }
    }
  }
  return check;
}

}  // namespace lwm::sched
