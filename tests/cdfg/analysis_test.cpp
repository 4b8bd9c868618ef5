#include "cdfg/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "cdfg/builder.h"

namespace lwm::cdfg {
namespace {

// in -> a -> b -> c -> out  with a side op s: a -> s -> c
Graph chain_with_slack() {
  Builder b("chain");
  const NodeId in = b.input("in");
  const NodeId a = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId x = b.op(OpKind::kMul, "b", {a});
  const NodeId c = b.op(OpKind::kAdd, "c", {x});
  const NodeId s = b.op(OpKind::kShift, "s", {a});
  b.graph().add_edge(s, c);
  b.output("out", c);
  return std::move(b).build();
}

TEST(TopoOrderTest, RespectsAllEdges) {
  const Graph g = chain_with_slack();
  const std::vector<NodeId> order = topo_order(g);
  std::unordered_map<std::uint32_t, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].value] = i;
  for (EdgeId e : g.edge_ids()) {
    const Edge& ed = g.edge(e);
    EXPECT_LT(pos.at(ed.src.value), pos.at(ed.dst.value));
  }
  EXPECT_EQ(order.size(), g.node_count());
}

TEST(TopoOrderTest, DetectsCycle) {
  Graph g("cyc");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  g.add_edge(a, b);
  g.add_edge(b, a, EdgeKind::kTemporal);
  EXPECT_THROW(topo_order(g), std::runtime_error);
  // The specification relation (without the temporal edge) is fine.
  EXPECT_NO_THROW(topo_order(g, EdgeFilter::specification()));
}

TEST(TimingTest, ChainAsapAlap) {
  const Graph g = chain_with_slack();
  const TimingInfo t = compute_timing(g);
  EXPECT_EQ(t.critical_path, 3);  // a, b, c serial
  EXPECT_EQ(t.asap[g.find("a").value], 0);
  EXPECT_EQ(t.asap[g.find("b").value], 1);
  EXPECT_EQ(t.asap[g.find("c").value], 2);
  // Critical nodes have zero slack.
  EXPECT_EQ(t.slack(g.find("a")), 0);
  EXPECT_EQ(t.slack(g.find("b")), 0);
  EXPECT_EQ(t.slack(g.find("c")), 0);
  // The side shift has one step of freedom.
  EXPECT_EQ(t.asap[g.find("s").value], 1);
  EXPECT_EQ(t.alap[g.find("s").value], 1);
}

TEST(TimingTest, LatencyBoundWidensWindows) {
  const Graph g = chain_with_slack();
  const TimingInfo t = compute_timing(g, 5);
  EXPECT_EQ(t.latency, 5);
  EXPECT_EQ(t.slack(g.find("a")), 2);
  EXPECT_EQ(t.alap[g.find("c").value], 4);
}

TEST(TimingTest, LatencyBelowCriticalPathThrows) {
  const Graph g = chain_with_slack();
  EXPECT_THROW(compute_timing(g, 2), std::invalid_argument);
}

TEST(TimingTest, LaxityOfCriticalNodeEqualsCriticalPath) {
  const Graph g = chain_with_slack();
  const TimingInfo t = compute_timing(g);
  EXPECT_EQ(t.laxity(g.find("a")), t.critical_path);
  EXPECT_EQ(t.laxity(g.find("b")), t.critical_path);
  // s lies on a path of length 3 as well (a, s, c): laxity 3.
  EXPECT_EQ(t.laxity(g.find("s")), 3);
}

TEST(TimingTest, MultiCycleDelays) {
  Builder b("multi");
  const NodeId in = b.input("in");
  const NodeId m = b.graph().add_node(OpKind::kMul, "m", 3);
  b.graph().add_edge(in, m);
  const NodeId a = b.op(OpKind::kAdd, "a", {m});
  b.output("o", a);
  const Graph g = std::move(b).build();
  const TimingInfo t = compute_timing(g);
  EXPECT_EQ(t.critical_path, 4);
  EXPECT_EQ(t.asap[g.find("a").value], 3);
}

TEST(TimingTest, WindowsOverlap) {
  const Graph g = chain_with_slack();
  const TimingInfo t = compute_timing(g, 5);
  EXPECT_TRUE(t.windows_overlap(g.find("b"), g.find("s")));
  EXPECT_TRUE(t.windows_overlap(g.find("s"), g.find("b")));
  const TimingInfo tight = compute_timing(g);
  EXPECT_FALSE(tight.windows_overlap(g.find("a"), g.find("c")));
}

TEST(TimingTest, TemporalEdgeNarrowsWindows) {
  Graph g = chain_with_slack();
  g.add_edge(g.find("b"), g.find("s"), EdgeKind::kTemporal);
  const TimingInfo spec = compute_timing(g, -1, EdgeFilter::specification());
  const TimingInfo all = compute_timing(g, -1, EdgeFilter::all());
  EXPECT_EQ(spec.asap[g.find("s").value], 1);
  EXPECT_EQ(all.asap[g.find("s").value], 2) << "temporal edge delays s after b";
}

TEST(ConeTest, DistanceBounds) {
  const Graph g = chain_with_slack();
  const NodeId c = g.find("c");
  const auto cone1 = fanin_cone(g, c, 1);
  // c plus its direct producers b and s.
  EXPECT_EQ(cone1.size(), 3u);
  EXPECT_EQ(cone1[0].node, c);
  EXPECT_EQ(cone1[0].distance, 0);
  const auto cone_all = fanin_cone(g, c, -1);
  EXPECT_EQ(cone_all.size(), 5u);  // everything but `out` feeds c
}

TEST(ReachesTest, ForwardOnly) {
  const Graph g = chain_with_slack();
  EXPECT_TRUE(reaches(g, g.find("a"), g.find("c")));
  EXPECT_FALSE(reaches(g, g.find("c"), g.find("a")));
  EXPECT_TRUE(reaches(g, g.find("a"), g.find("a")));
  EXPECT_FALSE(reaches(g, g.find("b"), g.find("s")));
}

}  // namespace
}  // namespace lwm::cdfg
