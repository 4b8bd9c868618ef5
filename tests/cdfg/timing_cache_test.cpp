#include "cdfg/timing_cache.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "cdfg/delay_model.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"

namespace lwm::cdfg {
namespace {

// Oracle: the from-scratch window recompute the reference FDS uses
// (forward/backward longest path with pinned overrides).
struct Windows {
  std::vector<int> lo, hi;
};

Windows reference_windows(const Graph& g, const std::vector<int>& pinned,
                          int latency, EdgeFilter filter) {
  const std::vector<NodeId> order = topo_order(g, filter);
  Windows w;
  w.lo.assign(g.node_capacity(), 0);
  w.hi.assign(g.node_capacity(), 0);
  for (NodeId n : order) {
    int lo = 0;
    for (EdgeId e : g.fanin(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed.kind)) continue;
      lo = std::max(lo, w.lo[ed.src.value] + g.node(ed.src).delay);
    }
    if (pinned[n.value] >= 0) lo = pinned[n.value];
    w.lo[n.value] = lo;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    int hi = latency - g.node(n).delay;
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed.kind)) continue;
      hi = std::min(hi, w.hi[ed.dst.value] - g.node(n).delay);
    }
    if (pinned[n.value] >= 0) hi = pinned[n.value];
    w.hi[n.value] = hi;
  }
  return w;
}

Graph diamond() {
  Builder b("diamond");
  const NodeId in = b.input("in");
  const NodeId a = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId l = b.op(OpKind::kMul, "l", {a});
  const NodeId r = b.op(OpKind::kAdd, "r", {a});
  const NodeId j = b.op(OpKind::kAdd, "j", {l, r});
  b.output("out", j);
  return std::move(b).build();
}

TEST(TimingCacheTest, MatchesComputeTimingAtConstruction) {
  const Graph g = dfglib::iir4_parallel();
  for (int extra : {0, 3}) {
    const TimingInfo t = compute_timing(g);
    TimingCache cache(g, t.critical_path + extra);
    EXPECT_EQ(cache.critical_path(), t.critical_path);
    EXPECT_EQ(cache.latency(), t.critical_path + extra);
    const TimingInfo bound = compute_timing(g, t.critical_path + extra);
    for (NodeId n : g.node_ids()) {
      EXPECT_EQ(cache.lo(n), bound.asap[n.value]) << g.node(n).name;
      EXPECT_EQ(cache.hi(n), bound.alap[n.value]) << g.node(n).name;
    }
  }
}

TEST(TimingCacheTest, RejectsLatencyBelowCriticalPath) {
  const Graph g = diamond();
  const int cp = critical_path_length(g);
  EXPECT_THROW(TimingCache(g, cp - 1), std::invalid_argument);
}

TEST(TimingCacheTest, PinMatchesReferenceWindowsAtEveryStep) {
  const Graph g = dfglib::iir4_parallel();
  const int cp = critical_path_length(g);
  const int latency = cp + 2;
  TimingCache cache(g, latency);
  std::vector<int> pinned(g.node_capacity(), -1);

  // Pin every executable node in topo order at the top of its current
  // window; after each pin the cache must agree with a from-scratch
  // recompute, and last_changed() must cover every delta.
  std::mt19937 rng(7);
  for (NodeId n : cache.topo()) {
    if (!is_executable(g.node(n).kind)) continue;
    Windows before = reference_windows(g, pinned, latency, EdgeFilter::all());
    const int span = cache.hi(n) - cache.lo(n);
    const int step =
        cache.lo(n) + (span == 0 ? 0 : static_cast<int>(rng() % (span + 1)));
    cache.pin(n, step);
    pinned[n.value] = step;
    const Windows after =
        reference_windows(g, pinned, latency, EdgeFilter::all());
    std::vector<bool> reported(g.node_capacity(), false);
    for (NodeId c : cache.last_changed()) reported[c.value] = true;
    EXPECT_TRUE(reported[n.value]);
    for (NodeId m : g.node_ids()) {
      EXPECT_EQ(cache.lo(m), after.lo[m.value]) << g.node(m).name;
      EXPECT_EQ(cache.hi(m), after.hi[m.value]) << g.node(m).name;
      if ((after.lo[m.value] != before.lo[m.value] ||
           after.hi[m.value] != before.hi[m.value])) {
        EXPECT_TRUE(reported[m.value]) << g.node(m).name;
      }
    }
  }
  EXPECT_TRUE(cache.feasible());
}

TEST(TimingCacheTest, PinValidatesWindowAndDoublePin) {
  const Graph g = diamond();
  const int cp = critical_path_length(g);
  TimingCache cache(g, cp + 1);
  const NodeId l = g.find("l");
  EXPECT_THROW(cache.pin(l, cache.hi(l) + 1), std::logic_error);
  EXPECT_THROW(cache.pin(l, cache.lo(l) - 1), std::logic_error);
  cache.pin(l, cache.lo(l));
  EXPECT_THROW(cache.pin(l, cache.lo(l)), std::logic_error);
}

TEST(TimingCacheTest, ReachesMatchesDfsOracle) {
  const Graph g = dfglib::make_fft(8);
  TimingCache cache(g, -1, EdgeFilter::all(), /*with_reachability=*/true);
  const std::vector<NodeId> nodes = g.node_ids();
  std::mt19937 rng(11);
  for (int i = 0; i < 500; ++i) {
    const NodeId a = nodes[rng() % nodes.size()];
    const NodeId b = nodes[rng() % nodes.size()];
    EXPECT_EQ(cache.reaches(a, b), reaches(g, a, b))
        << g.node(a).name << " -> " << g.node(b).name;
  }
}

TEST(TimingCacheTest, ReachesRequiresConstructionFlag) {
  const Graph g = diamond();
  TimingCache cache(g);
  EXPECT_THROW((void)cache.reaches(g.find("a"), g.find("j")),
               std::logic_error);
}

TEST(TimingCacheTest, AddExtraEdgeUpdatesWindowsAndClosure) {
  const Graph g = diamond();
  const int cp = critical_path_length(g);
  const int latency = cp + 1;
  TimingCache cache(g, latency, EdgeFilter::all(), true);
  const NodeId l = g.find("l");
  const NodeId r = g.find("r");
  EXPECT_FALSE(cache.reaches(l, r));

  cache.add_extra_edge(l, r);
  EXPECT_TRUE(cache.reaches(l, r));
  // in(a) reaches r through the new edge as well.
  EXPECT_TRUE(cache.reaches(g.find("a"), r));
  EXPECT_TRUE(cache.feasible());

  // Oracle: the same graph with a real temporal edge.
  Graph h = diamond();
  h.add_edge(h.find("l"), h.find("r"), EdgeKind::kTemporal);
  const TimingInfo t = compute_timing(h, latency);
  for (NodeId n : g.node_ids()) {
    EXPECT_EQ(cache.lo(n), t.asap[n.value]) << g.node(n).name;
    EXPECT_EQ(cache.hi(n), t.alap[n.value]) << g.node(n).name;
  }

  // The reverse edge now closes a cycle.
  EXPECT_THROW(cache.add_extra_edge(r, l), std::logic_error);
}

TEST(TimingCacheTest, AddExtraEdgeReportsInfeasibleWindows) {
  // Chain a -> b with zero slack: forcing b before a cannot fit.
  Builder b("tight");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "x", {in, in});
  const NodeId y = b.op(OpKind::kMul, "y", {x});
  b.output("out", y);
  const Graph g = std::move(b).build();
  TimingCache cache(g, -1, EdgeFilter::all(), true);
  // y -> x is a cycle; instead pin zero-slack and add an edge that
  // cannot fit the latency bound: x -> y already exists, so add a
  // second constraint via a fresh cache with latency == cp and an edge
  // from a node to itself is rejected; use sibling chain instead.
  Builder b2("tight2");
  const NodeId in2 = b2.input("in");
  const NodeId p = b2.op(OpKind::kAdd, "p", {in2, in2});
  const NodeId q = b2.op(OpKind::kMul, "q", {in2, in2});
  b2.output("o1", p);
  b2.output("o2", q);
  const Graph g2 = std::move(b2).build();
  TimingCache c2(g2, -1, EdgeFilter::all(), true);
  // cp == 1, both p and q must start at 0; p -> q needs q >= 1: infeasible.
  c2.add_extra_edge(g2.find("p"), g2.find("q"));
  EXPECT_FALSE(c2.feasible());
}

TEST(TimingCacheTest, UpdateWorkCountsConeOnly) {
  // Pinning a node at its ASAP in a wide graph should touch far fewer
  // nodes than the graph holds.
  const Graph g = dfglib::make_fir(64);
  const int cp = critical_path_length(g);
  TimingCache cache(g, cp + 4);
  NodeId some;
  for (NodeId n : cache.topo()) {
    if (is_executable(g.node(n).kind)) {
      some = n;
      break;
    }
  }
  cache.pin(some, cache.lo(some));
  EXPECT_LT(cache.update_work(), g.node_count());
}

TEST(TimingCacheTest, BoundedPinMatchesFromScratch) {
  Graph g = dfglib::make_fir(16);
  DelayModel::dyno(8).annotate(g);
  ASSERT_TRUE(g.has_bounded_delays());
  const int cp = critical_path_length(g);
  const int latency = cp + 2;
  TimingCache cache(g, latency);
  std::vector<int> pinned(g.node_capacity(), -1);

  std::mt19937 rng(13);
  for (NodeId n : cache.topo()) {
    if (!is_executable(g.node(n).kind)) continue;
    const Windows before =
        reference_windows(g, pinned, latency, EdgeFilter::all());
    const int span = cache.hi(n) - cache.lo(n);
    const int step =
        cache.lo(n) + (span == 0 ? 0 : static_cast<int>(rng() % (span + 1)));
    cache.pin(n, step);
    pinned[n.value] = step;
    const Windows after =
        reference_windows(g, pinned, latency, EdgeFilter::all());
    std::vector<bool> reported(g.node_capacity(), false);
    for (NodeId c : cache.last_changed()) reported[c.value] = true;
    EXPECT_TRUE(reported[n.value]);
    for (NodeId m : g.node_ids()) {
      EXPECT_EQ(cache.lo(m), after.lo[m.value]) << g.node(m).name;
      EXPECT_EQ(cache.hi(m), after.hi[m.value]) << g.node(m).name;
      if (after.lo[m.value] != before.lo[m.value] ||
          after.hi[m.value] != before.hi[m.value]) {
        EXPECT_TRUE(reported[m.value]) << g.node(m).name;
      }
    }
  }
  EXPECT_TRUE(cache.feasible());
}

TEST(TimingCacheTest, BoundedAddExtraEdgeUpdatesWindows) {
  Graph g = diamond();
  g.set_delay_bounds(g.find("l"), 1, 3);
  g.set_delay_bounds(g.find("a"), 1, 2);
  const int cp = critical_path_length(g);
  const int latency = cp + 2;
  TimingCache cache(g, latency, EdgeFilter::all(), true);
  cache.add_extra_edge(g.find("l"), g.find("r"));
  ASSERT_TRUE(cache.feasible());

  Graph h = diamond();
  h.set_delay_bounds(h.find("l"), 1, 3);
  h.set_delay_bounds(h.find("a"), 1, 2);
  h.add_edge(h.find("l"), h.find("r"), EdgeKind::kTemporal);
  const TimingInfo t = compute_timing(h, latency);
  for (NodeId n : g.node_ids()) {
    EXPECT_EQ(cache.lo(n), t.asap[n.value]) << g.node(n).name;
    EXPECT_EQ(cache.hi(n), t.alap[n.value]) << g.node(n).name;
  }
}

// The cache is the scheduling (d_max) band only: a graph and its copy
// with every d_min raised to d_max must drive it through identical
// states — windows, change reports and propagation work — under the
// same mutations.  Any work spent on d_min would show in update_work().
TEST(TimingCacheTest, IgnoresDelayMin) {
  Graph g = dfglib::make_fir(16);
  DelayModel::dyno(8).annotate(g);
  ASSERT_TRUE(g.has_bounded_delays());
  Graph exact = g;
  for (NodeId n : exact.node_ids()) {
    exact.set_delay_bounds(n, exact.node(n).delay, exact.node(n).delay);
  }
  ASSERT_FALSE(exact.has_bounded_delays());

  const int latency = critical_path_length(g) + 2;
  TimingCache a(g, latency, EdgeFilter::all(), /*with_reachability=*/true);
  TimingCache b(exact, latency, EdgeFilter::all(), /*with_reachability=*/true);
  const auto expect_same = [&](const char* after) {
    EXPECT_EQ(a.last_changed(), b.last_changed()) << after;
    EXPECT_EQ(a.update_work(), b.update_work()) << after;
    EXPECT_EQ(a.feasible(), b.feasible()) << after;
    for (NodeId m : g.node_ids()) {
      EXPECT_EQ(a.lo(m), b.lo(m)) << after << " " << g.node(m).name;
      EXPECT_EQ(a.hi(m), b.hi(m)) << after << " " << g.node(m).name;
    }
  };
  expect_same("construction");

  // One extra edge between two unordered operations whose windows leave
  // room for it, so the pin sequence below stays feasible.
  std::vector<NodeId> ops;
  for (NodeId n : a.topo()) {
    if (is_executable(g.node(n).kind)) ops.push_back(n);
  }
  bool added = false;
  for (std::size_t i = 0; i < ops.size() && !added; ++i) {
    for (std::size_t j = i + 1; j < ops.size() && !added; ++j) {
      const NodeId src = ops[i], dst = ops[j];
      if (a.reaches(src, dst) || a.reaches(dst, src)) continue;
      if (a.lo(src) + g.node(src).delay > a.lo(dst)) continue;
      a.add_extra_edge(src, dst);
      b.add_extra_edge(src, dst);
      added = true;
    }
  }
  ASSERT_TRUE(added);
  ASSERT_TRUE(a.feasible());
  expect_same("add_extra_edge");

  std::mt19937 rng(29);
  for (NodeId n : ops) {
    const int span = a.hi(n) - a.lo(n);
    const int step =
        a.lo(n) + (span == 0 ? 0 : static_cast<int>(rng() % (span + 1)));
    a.pin(n, step);
    b.pin(n, step);
    expect_same(g.node(n).name.c_str());
  }
  EXPECT_TRUE(a.feasible());
}

}  // namespace
}  // namespace lwm::cdfg
