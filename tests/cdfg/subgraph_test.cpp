#include "cdfg/subgraph.h"

#include <gtest/gtest.h>

#include "cdfg/validate.h"
#include "dfglib/iir4.h"

namespace lwm::cdfg {
namespace {

TEST(PartitionTest, CutTerminatesBoundary) {
  const Graph g = lwm::dfglib::iir4_parallel();
  // Cut out section 1's feed-forward half: C3, C4, A3, A4.
  const std::vector<NodeId> keep = {g.find("C3"), g.find("C4"), g.find("A3"),
                                    g.find("A4")};
  const Partition part = extract_partition(g, keep);
  EXPECT_EQ(part.graph.operation_count(), 4u);
  // Boundary re-termination keeps the partition a valid CDFG.
  EXPECT_TRUE(validate(part.graph).empty());
  // A3 reads A2 (outside) -> fresh input; A4 feeds A9 (outside) -> output.
  EXPECT_TRUE(part.graph.find("cut_in0").valid());
  EXPECT_TRUE(part.graph.find("cut_out0").valid());
}

TEST(PartitionTest, InternalEdgesSurvive) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const std::vector<NodeId> keep = {g.find("A3"), g.find("A4")};
  const Partition part = extract_partition(g, keep);
  EXPECT_TRUE(part.graph.has_edge(part.map.at(g.find("A3")),
                                  part.map.at(g.find("A4")), EdgeKind::kData));
}

TEST(PartitionTest, TemporalEdgesDroppedByDefault) {
  Graph g = lwm::dfglib::iir4_parallel();
  g.add_edge(g.find("A3"), g.find("A4"), EdgeKind::kTemporal);
  const std::vector<NodeId> keep = {g.find("A3"), g.find("A4")};
  const Partition thief = extract_partition(g, keep, false);
  EXPECT_TRUE(thief.graph.edges_of_kind(EdgeKind::kTemporal).empty())
      << "an adversary never sees the stripped constraints";
  const Partition designer = extract_partition(g, keep, true);
  EXPECT_EQ(designer.graph.edges_of_kind(EdgeKind::kTemporal).size(), 1u);
}

TEST(PartitionTest, DeadNodeRejected) {
  Graph g = lwm::dfglib::iir4_parallel();
  const NodeId a3 = g.find("A3");
  g.remove_node(a3);
  const std::vector<NodeId> keep = {a3};
  EXPECT_THROW((void)extract_partition(g, keep), std::out_of_range);
}

TEST(EmbedTest, CoreCarriedWithPrefix) {
  Graph host = lwm::dfglib::iir4_parallel();
  const Graph core = lwm::dfglib::iir4_parallel();
  const std::size_t host_nodes = host.node_count();
  const NodeMap map = embed_graph(host, core, "core_");
  EXPECT_EQ(host.node_count(), host_nodes + core.node_count());
  EXPECT_TRUE(host.find("core_A9").valid());
  EXPECT_EQ(map.at(core.find("A9")), host.find("core_A9"));
  EXPECT_TRUE(validate(host).empty());
}

}  // namespace
}  // namespace lwm::cdfg
