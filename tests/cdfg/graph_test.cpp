#include "cdfg/graph.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

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

TEST(GraphTest, RemoveNodeWithTokenSelfLoop) {
  Graph g("acc");
  const NodeId i = g.add_node(OpKind::kInput, "i");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  g.add_edge(i, a);
  g.add_edge(a, a, EdgeKind::kData, 1);  // a += previous a
  g.remove_node(a);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.fanout(i).empty());
}

/// Plain vector-of-vectors model of the adjacency the arena must match.
struct RefGraph {
  struct RefEdge {
    NodeId src, dst;
    EdgeKind kind;
    bool live;
  };
  std::vector<bool> live;
  std::vector<RefEdge> edges;
  std::vector<std::vector<EdgeId>> in, out;

  void add_node() {
    live.push_back(true);
    in.emplace_back();
    out.emplace_back();
  }
  void add_edge(NodeId s, NodeId d, EdgeKind k) {
    const EdgeId e{static_cast<std::uint32_t>(edges.size())};
    edges.push_back({s, d, k, true});
    out[s.value].push_back(e);
    in[d.value].push_back(e);
  }
  void remove_edge(EdgeId e) {
    RefEdge& ed = edges[e.value];
    std::erase(out[ed.src.value], e);
    std::erase(in[ed.dst.value], e);
    ed.live = false;
  }
  void remove_node(NodeId n) {
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
      if (edges[i].live && (edges[i].src == n || edges[i].dst == n)) {
        remove_edge(EdgeId{i});
      }
    }
    live[n.value] = false;
  }
  void strip_temporal() {
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
      if (edges[i].live && edges[i].kind == EdgeKind::kTemporal) {
        remove_edge(EdgeId{i});
      }
    }
  }
};

void expect_matches(const Graph& g, const RefGraph& ref) {
  ASSERT_EQ(g.node_capacity(), ref.live.size());
  ASSERT_EQ(g.edge_capacity(), ref.edges.size());
  for (std::uint32_t i = 0; i < ref.live.size(); ++i) {
    const NodeId n{i};
    ASSERT_EQ(g.is_live(n), ref.live[i]) << "node " << i;
    if (!ref.live[i]) continue;
    const std::span<const EdgeId> fi = g.fanin(n);
    const std::span<const EdgeId> fo = g.fanout(n);
    ASSERT_EQ(std::vector<EdgeId>(fi.begin(), fi.end()), ref.in[i]) << "fanin " << i;
    ASSERT_EQ(std::vector<EdgeId>(fo.begin(), fo.end()), ref.out[i]) << "fanout " << i;
  }
  for (std::uint32_t i = 0; i < ref.edges.size(); ++i) {
    ASSERT_EQ(g.is_live(EdgeId{i}), ref.edges[i].live) << "edge " << i;
  }
}

/// One random mutation, applied to the graph and its model alike.
void random_step(std::mt19937& rng, Graph& g, RefGraph& ref) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const auto pick = [&](const std::vector<bool>& live) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < live.size(); ++i) {
      if (live[i]) ids.push_back(i);
    }
    return ids.empty() ? kNone : ids[rng() % ids.size()];
  };
  std::vector<bool> edge_live;
  for (const RefGraph::RefEdge& e : ref.edges) edge_live.push_back(e.live);
  const std::uint32_t roll = rng() % 100;
  if (roll < 10 || g.node_count() < 2) {
    g.add_node(OpKind::kAdd);
    ref.add_node();
  } else if (roll < 70) {
    // Few nodes and many edges: lists grow long, relocate and collide
    // with parallel edges; a quarter of draws are token self-loops.
    const NodeId s{pick(ref.live)};
    const NodeId d = rng() % 4 == 0 ? s : NodeId{pick(ref.live)};
    const auto kind = static_cast<EdgeKind>(rng() % 3);
    g.add_edge(s, d, kind, s == d ? 1 : 0);
    ref.add_edge(s, d, kind);
  } else if (roll < 90) {
    if (const std::uint32_t e = pick(edge_live); e != kNone) {
      g.remove_edge(EdgeId{e});
      ref.remove_edge(EdgeId{e});
    }
  } else if (roll < 96) {
    const NodeId n{pick(ref.live)};
    g.remove_node(n);
    ref.remove_node(n);
  } else {
    g.strip_temporal_edges();
    ref.strip_temporal();
  }
}

TEST(GraphTest, ArenaAdjacencyMatchesReferenceModel) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    Graph g("arena");
    RefGraph ref;
    for (int step = 0; step < 600; ++step) {
      random_step(rng, g, ref);
      expect_matches(g, ref);
      if (HasFatalFailure()) return;
      if (rng() % 50 == 0) {
        // Copy, mutate only the copy: the original must not move.
        Graph copy = g;
        RefGraph copy_ref = ref;
        for (int k = 0; k < 20; ++k) random_step(rng, copy, copy_ref);
        expect_matches(copy, copy_ref);
        expect_matches(g, ref);
        if (HasFatalFailure()) return;
        if (rng() % 2 == 0) {
          g = std::move(copy);
          ref = std::move(copy_ref);
        }
      }
    }
  }
}

}  // namespace
}  // namespace lwm::cdfg
