#include "cdfg/graph.h"

#include <gtest/gtest.h>

#include "cdfg/builder.h"

namespace lwm::cdfg {
namespace {

Graph diamond() {
  // in -> a -> (b, c) -> d -> out
  Builder b("diamond");
  const NodeId in = b.input("in");
  const NodeId a = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId x = b.op(OpKind::kMul, "b", {a});
  const NodeId y = b.op(OpKind::kShift, "c", {a});
  const NodeId d = b.op(OpKind::kAdd, "d", {x, y});
  b.output("out", d);
  return std::move(b).build();
}

TEST(GraphTest, CountsAndLookup) {
  const Graph g = diamond();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.operation_count(), 4u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_TRUE(g.find("a").valid());
  EXPECT_FALSE(g.find("nope").valid());
  EXPECT_EQ(g.node(g.find("b")).kind, OpKind::kMul);
}

TEST(GraphTest, AutoNamesAreUnique) {
  Graph g("auto");
  const NodeId a = g.add_node(OpKind::kAdd);
  const NodeId b = g.add_node(OpKind::kAdd);
  EXPECT_NE(g.node(a).name, g.node(b).name);
}

TEST(GraphTest, FaninPreservesInsertionOrder) {
  Graph g("order");
  const NodeId i1 = g.add_node(OpKind::kInput, "i1");
  const NodeId i2 = g.add_node(OpKind::kInput, "i2");
  const NodeId i3 = g.add_node(OpKind::kInput, "i3");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  g.add_edge(i2, a);
  g.add_edge(i3, a);
  g.add_edge(i1, a);
  const auto fin = g.fanin(a);
  ASSERT_EQ(fin.size(), 3u);
  EXPECT_EQ(g.edge(fin[0]).src, i2);
  EXPECT_EQ(g.edge(fin[1]).src, i3);
  EXPECT_EQ(g.edge(fin[2]).src, i1);
}

TEST(GraphTest, SelfLoopRejected) {
  Graph g("self");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  EXPECT_THROW(g.add_edge(a, a), std::invalid_argument);
}

TEST(GraphTest, RemoveEdgeUpdatesAdjacency) {
  Graph g("rm");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  const EdgeId e = g.add_edge(a, b);
  EXPECT_EQ(g.fanout(a).size(), 1u);
  g.remove_edge(e);
  EXPECT_EQ(g.fanout(a).size(), 0u);
  EXPECT_EQ(g.fanin(b).size(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.is_live(e));
  EXPECT_THROW((void)g.edge(e), std::out_of_range);
}

TEST(GraphTest, RemoveNodeRemovesIncidentEdges) {
  Graph g = diamond();
  const NodeId a = g.find("a");
  g.remove_node(a);
  EXPECT_FALSE(g.is_live(a));
  EXPECT_EQ(g.node_count(), 5u);
  // a had 2 in + 2 out edges.
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.fanin(g.find("b")).size(), 0u);
}

TEST(GraphTest, NodeIdsStableAcrossRemoval) {
  Graph g = diamond();
  const NodeId d = g.find("d");
  g.remove_node(g.find("b"));
  EXPECT_EQ(g.node(d).name, "d");  // handle still resolves
}

TEST(GraphTest, StripTemporalEdges) {
  Graph g = diamond();
  const NodeId b = g.find("b");
  const NodeId c = g.find("c");
  g.add_edge(b, c, EdgeKind::kTemporal);
  EXPECT_TRUE(g.has_edge(b, c, EdgeKind::kTemporal));
  EXPECT_EQ(g.strip_temporal_edges(), 1);
  EXPECT_FALSE(g.has_edge(b, c, EdgeKind::kTemporal));
  EXPECT_EQ(g.strip_temporal_edges(), 0) << "idempotent";
}

TEST(GraphTest, EdgesOfKind) {
  Graph g = diamond();
  g.add_edge(g.find("b"), g.find("c"), EdgeKind::kTemporal);
  EXPECT_EQ(g.edges_of_kind(EdgeKind::kTemporal).size(), 1u);
  EXPECT_EQ(g.edges_of_kind(EdgeKind::kData).size(), 7u);
  EXPECT_EQ(g.edges_of_kind(EdgeKind::kControl).size(), 0u);
}

TEST(GraphTest, HasEdgeIsKindSpecific) {
  Graph g = diamond();
  const NodeId a = g.find("a");
  const NodeId b = g.find("b");
  EXPECT_TRUE(g.has_edge(a, b, EdgeKind::kData));
  EXPECT_FALSE(g.has_edge(a, b, EdgeKind::kTemporal));
  EXPECT_FALSE(g.has_edge(b, a, EdgeKind::kData)) << "direction matters";
}

TEST(GraphTest, ParallelEdgesAllowed) {
  Graph g("par");
  const NodeId i = g.add_node(OpKind::kInput, "i");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  g.add_edge(i, a);
  g.add_edge(i, a);  // a = i + i
  EXPECT_EQ(g.fanin(a).size(), 2u);
}

TEST(GraphTest, DeadHandleAccessThrows) {
  Graph g("dead");
  EXPECT_THROW((void)g.node(NodeId{0}), std::out_of_range);
  EXPECT_THROW((void)g.fanin(NodeId{7}), std::out_of_range);
  EXPECT_THROW((void)g.add_edge(NodeId{0}, NodeId{1}), std::out_of_range);
}

TEST(GraphTest, CopySemanticsAreDeep) {
  Graph g = diamond();
  Graph copy = g;
  copy.remove_node(copy.find("b"));
  EXPECT_TRUE(g.find("b").valid());
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(copy.node_count(), 5u);
}

}  // namespace
}  // namespace lwm::cdfg
