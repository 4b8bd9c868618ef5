// psi_oracle_test — the one psi counter against a brute force.
//
// The oracle enumerates the cartesian product of the members' windows
// and keeps every start vector in which each pair honors its separation,
// read from a plain per-pair longest path: a DFS over specification
// edges for flat spaces, Bellman-Ford at II for periodic ones.  It uses
// no closure, no window tightening and no components.  A seeded sweep
// compares its count and saturation flag with count_schedules (flat),
// count_separated (periodic) and sched_pc_auto's exact estimate, at small
// limits too, so saturation is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"
#include "obs/obs.h"
#include "poisson_padding.h"
#include "sched/enumerate.h"
#include "sched/modulo.h"
#include "wm/pc.h"

namespace lwm::wm {
namespace {

using cdfg::EdgeFilter;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;
using sched::EnumerationResult;
using sched::ExtraPrecedence;

constexpr long long kFree = sched::kNoSeparation;

// Limits each space is counted at: small enough to saturate, and the
// exact path's budget.
constexpr std::uint64_t kLimits[] = {1, 7, 60, sched::kExactLimit};

// The oracle never enumerates more start vectors than this.
constexpr double kMaxProduct = 200'000;

/// m members' windows and their m x m separations (kFree: unconstrained).
struct Space {
  std::vector<long long> lo, hi, sep;
};

/// Every start vector of the windows' cartesian product, checked pair by
/// pair; counting stops at `limit`.
EnumerationResult brute_force(const Space& s, std::uint64_t limit) {
  const std::size_t m = s.lo.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (s.lo[i] > s.hi[i]) return {0, false};
  }
  std::vector<long long> t = s.lo;
  std::uint64_t count = 0;
  for (;;) {
    bool ok = true;
    for (std::size_t i = 0; i < m && ok; ++i) {
      for (std::size_t j = 0; j < m && ok; ++j) {
        const long long d = s.sep[i * m + j];
        ok = i == j || d == kFree || t[j] >= t[i] + d;
      }
    }
    if (ok && ++count >= limit) return {limit, true};
    std::size_t k = 0;
    for (; k < m && t[k] == s.hi[k]; ++k) t[k] = s.lo[k];
    if (k == m) return {count, false};
    ++t[k];
  }
}

void add_precedences(const Graph& g, const std::vector<NodeId>& members,
                     const std::vector<ExtraPrecedence>& extra, Space& s) {
  const std::size_t m = members.size();
  auto index = [&](NodeId n) {
    return static_cast<std::size_t>(
        std::find(members.begin(), members.end(), n) - members.begin());
  };
  for (const ExtraPrecedence& x : extra) {
    long long& d = s.sep[index(x.before) * m + index(x.after)];
    d = std::max(d, static_cast<long long>(g.node(x.before).delay));
  }
}

// ---- Flat spaces -----------------------------------------------------------

/// Longest delay-weighted specification path from `u` to `to` by DFS,
/// kFree when `to` is unreachable; `memo` holds kUnknown when unvisited.
constexpr long long kUnknown = kFree - 1;
long long longest_path(const Graph& g, NodeId u, NodeId to,
                       std::vector<long long>& memo) {
  if (u == to) return 0;
  if (memo[u.value] != kUnknown) return memo[u.value];
  long long best = kFree;
  for (const cdfg::EdgeId e : g.fanout(u)) {
    const cdfg::Edge& ed = g.edge(e);
    if (!EdgeFilter::specification().accepts(ed)) continue;
    const long long rest = longest_path(g, ed.dst, to, memo);
    if (rest != kFree) best = std::max(best, g.node(u).delay + rest);
  }
  return memo[u.value] = best;
}

Space flat_space(const Graph& g, const cdfg::TimingInfo& t,
                 const std::vector<NodeId>& members,
                 const std::vector<ExtraPrecedence>& extra) {
  const std::size_t m = members.size();
  Space s;
  s.sep.assign(m * m, kFree);
  for (std::size_t j = 0; j < m; ++j) {
    s.lo.push_back(t.asap[members[j].value]);
    s.hi.push_back(t.alap[members[j].value]);
    std::vector<long long> memo(g.node_capacity(), kUnknown);
    for (std::size_t i = 0; i < m; ++i) {
      if (i != j) s.sep[i * m + j] = longest_path(g, members[i], members[j], memo);
    }
  }
  add_precedences(g, members, extra, s);
  return s;
}

// ---- Periodic spaces -------------------------------------------------------

constexpr EdgeFilter kPeriodic{true, true, false, true};

long long weight(const Graph& g, const cdfg::Edge& ed, int ii) {
  return g.node(ed.src).delay - static_cast<long long>(ii) * ed.tokens;
}

/// Longest token-weighted distance from `src` at `ii`, by Bellman-Ford.
std::vector<long long> bellman_ford(const Graph& g, NodeId src, int ii) {
  std::vector<long long> dist(g.node_capacity(), kFree);
  dist[src.value] = 0;
  for (std::size_t pass = 0; pass < g.node_count(); ++pass) {
    for (const cdfg::EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kPeriodic.accepts(ed) || dist[ed.src.value] == kFree) continue;
      dist[ed.dst.value] =
          std::max(dist[ed.dst.value], dist[ed.src.value] + weight(g, ed, ii));
    }
  }
  return dist;
}

/// Periodic windows at `ii` by NodeId: earliest flat starts floored at
/// 0, latest ones within the earliest schedule's makespan.
struct Windows {
  std::vector<long long> lo, hi;
};
Windows periodic_windows(const Graph& g, int ii) {
  std::vector<long long> est(g.node_capacity(), 0);
  for (std::size_t pass = 0; pass < g.node_count(); ++pass) {
    for (const cdfg::EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kPeriodic.accepts(ed)) continue;
      est[ed.dst.value] =
          std::max(est[ed.dst.value], est[ed.src.value] + weight(g, ed, ii));
    }
  }
  long long span = 0;
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) {
      span = std::max(span, est[n.value] + g.node(n).delay);
    }
  }
  std::vector<long long> lst(g.node_capacity(), 0);
  for (const NodeId n : g.nodes()) lst[n.value] = span - g.node(n).delay;
  for (std::size_t pass = 0; pass < g.node_count(); ++pass) {
    for (const cdfg::EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kPeriodic.accepts(ed)) continue;
      lst[ed.src.value] =
          std::min(lst[ed.src.value], lst[ed.dst.value] - weight(g, ed, ii));
    }
  }
  return {est, lst};
}

Space periodic_space(const Graph& g, const Windows& w, int ii,
                     const std::vector<NodeId>& members,
                     const std::vector<ExtraPrecedence>& extra) {
  const std::size_t m = members.size();
  Space s;
  s.sep.assign(m * m, kFree);
  for (std::size_t i = 0; i < m; ++i) {
    s.lo.push_back(w.lo[members[i].value]);
    s.hi.push_back(w.hi[members[i].value]);
    const std::vector<long long> dist = bellman_ford(g, members[i], ii);
    for (std::size_t j = 0; j < m; ++j) {
      if (j != i) s.sep[i * m + j] = dist[members[j].value];
    }
  }
  add_precedences(g, members, extra, s);
  return s;
}

// ---- The sweep -------------------------------------------------------------

/// What a sweep exercised, so that a sweep of trivial spaces fails.
struct Coverage {
  int saturated = 0, counted = 0, empty = 0;  ///< oracle results
  int exact = 0, degenerate = 0;              ///< exact estimates
};

void expect_same(const EnumerationResult& got, const EnumerationResult& want,
                 const std::string& what, Coverage* cov = nullptr) {
  if (cov != nullptr) {
    ++(want.saturated ? cov->saturated : want.count == 0 ? cov->empty
                                                          : cov->counted);
  }
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.saturated, want.saturated) << what;
}

SchedWatermark mark_of(const std::vector<NodeId>& members,
                       const std::vector<ExtraPrecedence>& extra) {
  SchedWatermark wm;
  wm.root = members.back();
  wm.subtree = members;
  for (const ExtraPrecedence& x : extra) {
    wm.constraints.push_back({x.before, x.after});
  }
  return wm;
}

/// sched_pc_auto's estimate of a mark whose psi_n / psi_w spaces are
/// `free` / `marked`, read from the oracle: exact within the budget,
/// otherwise the Poisson model (not compared here).
void expect_exact_estimate(const PcEstimate& est, const Space& free,
                           const Space& marked, const std::string& what,
                           Coverage& cov) {
  const EnumerationResult n = brute_force(free, sched::kExactLimit);
  const EnumerationResult w = brute_force(marked, sched::kExactLimit);
  const bool exact = !n.saturated && n.count > 0 && !w.saturated;
  ASSERT_EQ(est.exact, exact) << what;
  if (!exact) return;
  const double want =
      w.count == 0 ? -std::log10(static_cast<double>(n.count)) - 1.0
                   : std::log10(static_cast<double>(w.count)) -
                         std::log10(static_cast<double>(n.count));
  EXPECT_EQ(est.log10_pc, want) << what;
  EXPECT_EQ(est.degenerate, w.count == 0) << what;
  ++(w.count == 0 ? cov.degenerate : cov.exact);
}

/// A random DAG of `ops` operations: each draws up to three operands
/// from the earlier ones, with delays 1-3.
Graph random_dag(std::mt19937_64& rng, int ops) {
  Graph g;
  g.set_name("oracle_dag");
  std::vector<NodeId> nodes;
  for (int i = 0; i < ops; ++i) {
    const OpKind kind = rng() % 3 == 0 ? OpKind::kMul : OpKind::kAdd;
    const NodeId n = g.add_node(kind, "n" + std::to_string(i),
                                static_cast<int>(1 + rng() % 3));
    const int operands = i == 0 ? 0 : static_cast<int>(rng() % 4);
    for (int k = 0; k < operands; ++k) {
      const NodeId src = nodes[rng() % nodes.size()];
      if (!cdfg::reaches(g, src, n)) g.add_edge(src, n);  // no duplicate
    }
    nodes.push_back(n);
  }
  return g;
}

/// Up to `want` distinct executable members, drawn while the windows'
/// product stays enumerable, and up to three precedences between them.
/// With a `topo` order the precedences run forward in it, so they keep
/// the specification acyclic; without one they take any direction.
struct Draw {
  std::vector<NodeId> members;
  std::vector<ExtraPrecedence> extra;
};
Draw draw(std::mt19937_64& rng, const Graph& g, std::size_t want,
          const std::vector<long long>& lo, const std::vector<long long>& hi,
          const std::vector<NodeId>& topo) {
  std::vector<NodeId> ops;
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  std::shuffle(ops.begin(), ops.end(), rng);
  Draw d;
  double product = 1.0;
  for (const NodeId n : ops) {
    if (d.members.size() == want) break;
    const double width = static_cast<double>(hi[n.value] - lo[n.value] + 1);
    if (product * width > kMaxProduct) continue;
    product *= width;
    d.members.push_back(n);
  }
  std::vector<std::size_t> rank(g.node_capacity(), 0);
  for (std::size_t i = 0; i < topo.size(); ++i) rank[topo[i].value] = i;
  std::sort(d.members.begin(), d.members.end(), [&](NodeId a, NodeId b) {
    return rank[a.value] < rank[b.value];
  });
  const std::size_t m = d.members.size();
  const std::uint64_t edges = rng() % 4;
  for (std::uint64_t k = 0; m >= 2 && k < edges; ++k) {
    std::size_t a = rng() % m, b = rng() % m;
    if (a == b) continue;
    if (!topo.empty() && a > b) std::swap(a, b);
    d.extra.push_back({d.members[a], d.members[b]});
  }
  return d;
}

std::vector<long long> widen(const std::vector<int>& v) {
  return {v.begin(), v.end()};
}

TEST(PsiOracleTest, FlatRandomDagsMatchCountSchedules) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    std::mt19937_64 rng(seed);
    const Graph g = seed % 4 == 0
                        ? dfglib::make_dsp_design("oracle_dsp", 6, 14, seed)
                        : random_dag(rng, 8 + static_cast<int>(seed % 7));
    const int cp = cdfg::critical_path_length(g, EdgeFilter::specification());
    for (const int slack : {0, 1, 2}) {
      const cdfg::TimingInfo t =
          cdfg::compute_timing(g, cp + slack, EdgeFilter::specification());
      const Draw d = draw(rng, g, 2 + rng() % 6, widen(t.asap), widen(t.alap),
                          cdfg::topo_order(g, EdgeFilter::specification()));
      const std::string what = "seed " + std::to_string(seed) + " slack " +
                               std::to_string(slack);
      const Space free = flat_space(g, t, d.members, {});
      const Space marked = flat_space(g, t, d.members, d.extra);
      for (const std::uint64_t limit : kLimits) {
        expect_same(sched::count_schedules(g, t, d.members, {}, limit),
                    brute_force(free, limit), what + " free", &cov);
        expect_same(sched::count_schedules(g, t, d.members, d.extra, limit),
                    brute_force(marked, limit), what + " marked", &cov);
      }
      if (slack == 0) {
        // sched_pc_auto's flat space is the specification at its
        // critical path.
        expect_exact_estimate(sched_pc_auto(g, mark_of(d.members, d.extra)),
                              free, marked, what, cov);
      }
    }
  }
  EXPECT_GT(cov.saturated, 0);
  EXPECT_GT(cov.counted, 0);
  EXPECT_GT(cov.empty, 0);
  EXPECT_GT(cov.exact, 0);
  EXPECT_GT(cov.degenerate, 0);
}

TEST(PsiOracleTest, PeriodicKernelsMatchTheExactEstimate) {
  struct Case {
    const char* name;
    Graph g;
    int tokens;
  };
  Case cases[] = {
      {"fir16", dfglib::make_fir(16), 1},
      {"fir16_t2", dfglib::make_fir(16), 2},
      {"fft8", dfglib::make_fft(8), 2},
      {"biquad4", dfglib::make_biquad_cascade(4), 3},
      {"iir4", dfglib::iir4_parallel(), 2},
  };
  Coverage cov;
  for (Case& c : cases) {
    (void)dfglib::add_feedback(c.g, c.tokens);
    const int rec = sched::recurrence_min_ii(c.g);
    std::mt19937_64 rng(static_cast<std::uint64_t>(rec) * 7919 + c.tokens);
    for (const int ii : {rec, rec + 1}) {
      const Windows w = periodic_windows(c.g, ii);
      for (int round = 0; round < 4; ++round) {
        const Draw d =
            draw(rng, c.g, 2 + rng() % 4, w.lo, w.hi, /*topo=*/{});
        const std::string what = std::string(c.name) + " ii " +
                                 std::to_string(ii) + " round " +
                                 std::to_string(round);
        const Space free = periodic_space(c.g, w, ii, d.members, {});
        const Space marked = periodic_space(c.g, w, ii, d.members, d.extra);
        for (const std::uint64_t limit : kLimits) {
          expect_same(sched::count_separated(free.lo, free.hi, free.sep, limit),
                      brute_force(free, limit), what + " free", &cov);
          expect_same(
              sched::count_separated(marked.lo, marked.hi, marked.sep, limit),
              brute_force(marked, limit), what + " marked", &cov);
        }
        expect_exact_estimate(
            sched_pc_auto(c.g, mark_of(d.members, d.extra), ii), free, marked,
            what, cov);
        }
    }
  }
  EXPECT_GT(cov.saturated, 0);
  EXPECT_GT(cov.counted, 0);
  EXPECT_GT(cov.empty, 0);
  EXPECT_GT(cov.exact, 0);
  EXPECT_GT(cov.degenerate, 0);
}

TEST(PsiOracleTest, RandomSeparationSpacesMatchCountSeparated) {
  // The counter's own input, drawn at random: negative separations
  // (loop-carried slack), zero-weight and positive cycles, and pairs
  // constrained in both directions, which the graph sweeps rarely reach.
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t m = 1 + rng() % 6;
    Space space;
    space.sep.assign(m * m, kFree);
    for (std::size_t i = 0; i < m; ++i) {
      space.lo.push_back(static_cast<long long>(rng() % 4));
      space.hi.push_back(space.lo.back() + static_cast<long long>(rng() % 5));
      for (std::size_t j = 0; j < m; ++j) {
        if (i != j && rng() % 5 < 2) {
          space.sep[i * m + j] = static_cast<long long>(rng() % 7) - 3;
        }
      }
    }
    for (const std::uint64_t limit : kLimits) {
      expect_same(
          sched::count_separated(space.lo, space.hi, space.sep, limit),
          brute_force(space, limit), "seed " + std::to_string(seed), &cov);
    }
  }
  EXPECT_GT(cov.saturated, 0);
  EXPECT_GT(cov.counted, 0);
  EXPECT_GT(cov.empty, 0);
}

// ---- Edge cases ------------------------------------------------------------

// Two independent ops a and b beside the input, critical path 1.
Graph two_free_ops() {
  cdfg::Builder b("two");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId y = b.op(OpKind::kMul, "b", {in, in});
  b.output("oa", x);
  b.output("ob", y);
  return std::move(b).build();
}

TEST(PsiCountTest, ExactLimitSaturation) {
  const Graph g = two_free_ops();
  // Latency 3: 3 x 3 = exactly 9 schedules.
  const cdfg::TimingInfo t =
      cdfg::compute_timing(g, 3, EdgeFilter::specification());
  const std::vector<NodeId> ops = {g.find("a"), g.find("b")};
  // An exact hit saturates at precisely the limit.
  const EnumerationResult at = sched::count_schedules(g, t, ops, {}, 9);
  EXPECT_TRUE(at.saturated);
  EXPECT_EQ(at.count, 9u);
  // One above does not saturate.
  const EnumerationResult above = sched::count_schedules(g, t, ops, {}, 10);
  EXPECT_FALSE(above.saturated);
  EXPECT_EQ(above.count, 9u);
  // Below clamps to the limit.
  const EnumerationResult below = sched::count_schedules(g, t, ops, {}, 5);
  EXPECT_TRUE(below.saturated);
  EXPECT_EQ(below.count, 5u);
}

TEST(PsiCountTest, IndependentComponentsMultiply) {
  // Two unrelated ops at latency 3: the factored count equals the brute
  // product 3 * 3.
  const Graph g = two_free_ops();
  const std::vector<NodeId> ops = {g.find("a"), g.find("b")};
  EXPECT_EQ(sched::count_schedules(
                g, cdfg::compute_timing(g, 3, EdgeFilter::specification()),
                ops)
                .count,
            9u);

  // Chained ops stay one component with the separation honored.
  cdfg::Builder b("chain");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "x", {in, in});
  const NodeId m = b.op(OpKind::kMul, "m", {x});
  const NodeId y = b.op(OpKind::kAdd, "y", {m});
  b.output("o", y);
  const Graph chain = std::move(b).build();
  const std::vector<NodeId> subset = {chain.find("x"), chain.find("y")};
  EXPECT_EQ(sched::count_schedules(
                chain,
                cdfg::compute_timing(chain, 4, EdgeFilter::specification()),
                subset)
                .count,
            3u);
}

TEST(PsiCountTest, SeparationWalksIgnoreIsolatedPadding) {
  // A flat count walks only what lies between its members: isolated
  // nodes padding the design to four times its size change neither the
  // nodes the separation walks touch nor any count.  The padded copy is
  // past the exact threshold, so count_schedules is called directly.
  const Graph g = dfglib::iir4_parallel();
  const Graph padded = with_isolated_inputs(g, 3 * g.node_count());
  ASSERT_EQ(padded.node_count(), 4 * g.node_count());
  std::vector<NodeId> ops;
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  const std::vector<ExtraPrecedence> extra = {{g.find("C1"), g.find("C3")}};
  struct Run {
    EnumerationResult free, marked;
    std::uint64_t walked = 0;
  };
  auto run = [&](const Graph& design) {
    const int latency = cdfg::critical_path_length(g) + 1;
    const cdfg::TimingInfo t =
        cdfg::compute_timing(design, latency, EdgeFilter::specification());
    Run r;
#if LWM_OBS_ENABLED
    const std::uint64_t before =
        obs::Registry::instance().counter("sched/enum_walk_nodes").total();
#endif
    r.free = sched::count_schedules(design, t, ops);
    r.marked = sched::count_schedules(design, t, ops, extra);
#if LWM_OBS_ENABLED
    r.walked =
        obs::Registry::instance().counter("sched/enum_walk_nodes").total() -
        before;
#endif
    return r;
  };
  const Run plain = run(g);
  const Run wide = run(padded);
  expect_same(wide.free, plain.free, "free");
  expect_same(wide.marked, plain.marked, "marked");
  EXPECT_GT(plain.free.count, plain.marked.count);
  EXPECT_EQ(wide.walked, plain.walked);
#if LWM_OBS_ENABLED
  EXPECT_GT(plain.walked, 0u);
#endif
}

TEST(PsiCountTest, PseudoOpSubtreeIsExactOneWithoutCounting) {
  // A subtree of pseudo-ops has no executable member: one (empty)
  // schedule with or without the mark, an exact ratio of 1, and no
  // enumeration — flat on a small design and periodic on a marked graph.
  Graph g = dfglib::iir4_parallel();
  SchedWatermark wm;
  for (const NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) wm.subtree.push_back(n);
  }
  ASSERT_GE(wm.subtree.size(), 2u);
  wm.root = wm.subtree.front();
  wm.constraints.push_back({wm.subtree[0], wm.subtree[1]});
  auto expect_exact_one = [&](const Graph& design, int ii) {
#if LWM_OBS_ENABLED
    obs::Counter& evals = obs::Registry::instance().counter("wm/psi_evals");
    const std::uint64_t before = evals.total();
#endif
    const PcEstimate est = sched_pc_auto(design, wm, ii);
    EXPECT_EQ(est.log10_pc, 0.0);
    EXPECT_TRUE(est.exact);
    EXPECT_FALSE(est.degenerate);
#if LWM_OBS_ENABLED
    EXPECT_EQ(evals.total() - before, 0u) << "ii " << ii;
#endif
  };
  ASSERT_LE(g.node_count(), kDocumentedPoissonThreshold);
  expect_exact_one(g, 0);
  (void)dfglib::add_feedback(g, 2);
  expect_exact_one(g, sched::recurrence_min_ii(g));
}

}  // namespace
}  // namespace lwm::wm
