#include "wm/domain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cdfg/serialize.h"
#include "cdfg/subgraph.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"
#include "wm/sched_constraints.h"

#include "locality_oracle.h"
#include "pick_root.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "a-different-key-entirely"}; }

TEST(OrderLocalityTest, RootFirstAndUnique) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const auto ordered = order_locality(g, g.find("A9"), 4);
  ASSERT_FALSE(ordered.empty());
  EXPECT_EQ(ordered.back(), g.find("A9")) << "root has level 0, sorts last";
  std::set<NodeId> unique(ordered.begin(), ordered.end());
  EXPECT_EQ(unique.size(), ordered.size());
}

TEST(OrderLocalityTest, DeterministicAcrossCalls) {
  const Graph g = lwm::dfglib::iir4_parallel();
  EXPECT_EQ(order_locality(g, g.find("A9"), 4), order_locality(g, g.find("A9"), 4));
}

TEST(OrderLocalityTest, SurvivesSerializationRoundTrip) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const Graph h = cdfg::parse_cdfg(cdfg::to_text(g)).value();
  const auto og = order_locality(g, g.find("A9"), 4);
  const auto oh = order_locality(h, h.find("A9"), 4);
  ASSERT_EQ(og.size(), oh.size());
  for (std::size_t i = 0; i < og.size(); ++i) {
    EXPECT_EQ(g.node(og[i]).name, h.node(oh[i]).name) << "position " << i;
  }
}

TEST(OrderLocalityTest, LevelIsPrimaryCriterion) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const auto ordered = order_locality(g, g.find("A9"), 6);
  // A4 and A8 are at distance 1 from A9; x (an input) is much deeper.
  // Descending level: deeper nodes come first, the root comes last.
  EXPECT_EQ(ordered.back(), g.find("A9"));
  const auto pos = [&](const char* name) {
    return std::find(ordered.begin(), ordered.end(), g.find(name)) -
           ordered.begin();
  };
  EXPECT_LT(pos("A1"), pos("A4")) << "A1 is deeper in A9's cone than A4";
  (void)pos;
}

TEST(OrderLocalityTest, BadArgumentsThrow) {
  const Graph g = lwm::dfglib::iir4_parallel();
  EXPECT_THROW((void)order_locality(g, g.find("A9"), 0), std::invalid_argument);
  EXPECT_THROW((void)order_locality(g, NodeId{9999}, 3), std::out_of_range);
}

TEST(SelectDomainTest, DeterministicPerSignature) {
  const Graph g = lwm::dfglib::iir4_parallel();
  DomainKey key;
  key.tau = 5;
  const Domain a1 = select_domain(g, g.find("A9"), alice(), key);
  const Domain a2 = select_domain(g, g.find("A9"), alice(), key);
  EXPECT_EQ(a1.selected, a2.selected);
}

TEST(SelectDomainTest, SignaturesCarveDifferently) {
  const Graph g = lwm::dfglib::iir4_parallel();
  DomainKey key;
  key.tau = 6;
  // keep probability 1/2 leaves room for divergence.
  const Domain a = select_domain(g, g.find("A9"), alice(), key);
  const Domain b = select_domain(g, g.find("A9"), eve(), key);
  // The carved subtree is keyed (extremely likely to differ on a
  // cone with many optional inputs).
  EXPECT_NE(a.selected, b.selected);
}

TEST(SelectDomainTest, SelectedIsConnectedToRoot) {
  const Graph g = lwm::dfglib::iir4_parallel();
  DomainKey key;
  key.tau = 6;
  const Domain d = select_domain(g, g.find("A9"), alice(), key);
  EXPECT_FALSE(d.selected.empty());
  // Root always selected.
  EXPECT_NE(std::find(d.selected.begin(), d.selected.end(), g.find("A9")),
            d.selected.end());
  // Every selected node reaches the root (it lives in the fan-in cone).
  for (const NodeId n : d.selected) {
    EXPECT_TRUE(cdfg::reaches(g, n, g.find("A9"))) << g.node(n).name;
  }
}

TEST(SelectDomainTest, SelectionIsSubsetOfOrdered) {
  const Graph g = lwm::dfglib::iir4_parallel();
  DomainKey key;
  key.tau = 4;
  const Domain d = select_domain(g, g.find("A9"), alice(), key);
  const std::vector<NodeId> cone = order_locality(g, g.find("A9"), key.tau);
  const std::set<NodeId> ordered(cone.begin(), cone.end());
  for (const NodeId n : d.selected) {
    EXPECT_TRUE(ordered.count(n) != 0);
  }
  EXPECT_LE(d.selected.size(), cone.size());
  // T keeps the identifier order of T_o.
  EXPECT_TRUE(std::ranges::is_sorted(d.selected, {}, [&](NodeId n) {
    return std::ranges::find(cone, n) - cone.begin();
  }));
}

TEST(SelectDomainTest, CarvingSurvivesPartitionExtraction) {
  // The locality property: cut the cone out of the design and the carve
  // reproduces (names differ; compare by original identity via the map).
  const Graph g = lwm::dfglib::iir4_parallel();
  DomainKey key;
  key.tau = 3;
  const Domain d = select_domain(g, g.find("A4"), alice(), key);

  // Cut out the full fan-in cone of A4 (not just the selection).
  const auto cone = cdfg::fanin_cone(g, g.find("A4"), key.tau);
  std::vector<NodeId> keep;
  for (const auto& c : cone) keep.push_back(c.node);
  const cdfg::Partition part = cdfg::extract_partition(g, keep);

  const NodeId root_in_part = part.map.at(g.find("A4"));
  const Domain d2 = select_domain(part.graph, root_in_part, alice(), key);
  ASSERT_EQ(d.selected.size(), d2.selected.size());
  for (std::size_t i = 0; i < d.selected.size(); ++i) {
    EXPECT_EQ(part.map.at(d.selected[i]), d2.selected[i]) << "position " << i;
  }
}

TEST(PickRootTest, ReturnsExecutableNode) {
  const Graph g = lwm::dfglib::iir4_parallel();
  crypto::Bitstream stream = alice().stream("roots");
  for (int i = 0; i < 10; ++i) {
    const NodeId r = pick_root(g, stream);
    EXPECT_TRUE(cdfg::is_executable(g.node(r).kind));
  }
}

TEST(SelectDomainTest, ComputesKeyRowsOnlyWhereComparisonsTie) {
  // C1 and K(0) part most comparisons, so most cone members never need
  // their C2/C3 row.
  const Graph g = lwm::dfglib::make_mega_design({.operations = 2000});
  const crypto::Bitstream carve = alice().stream(DomainKey::kCarveTag);
  DomainKey key;
  key.tau = 8;
  const FaninView view = FaninView::build(g);
  CarveScratch s;
  std::size_t cone_nodes = 0;
  for (const NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    (void)select_domain(view, n, carve, key, &s);
    cone_nodes += s.cone.size();
  }
  ASSERT_GT(cone_nodes, 0u);
  EXPECT_LE(2 * s.key_rows, cone_nodes);
}

/// b <- a twice (a squared), s <- {b data, m, b control}, t <- {s, m, s, a}:
/// parallel duplicate edges, of one kind and across kinds.
Graph duplicate_edge_graph() {
  Graph g("dups");
  const NodeId a = g.add_node(cdfg::OpKind::kInput, "a");
  const NodeId b = g.add_node(cdfg::OpKind::kInput, "b");
  const NodeId m = g.add_node(cdfg::OpKind::kMul, "m");
  g.add_edge(a, m);
  g.add_edge(a, m);
  const NodeId s = g.add_node(cdfg::OpKind::kAdd, "s");
  g.add_edge(b, s);
  g.add_edge(m, s);
  g.add_edge(b, s, cdfg::EdgeKind::kControl);
  const NodeId t = g.add_node(cdfg::OpKind::kSub, "t");
  g.add_edge(s, t);
  g.add_edge(m, t);
  g.add_edge(s, t);
  g.add_edge(a, t);
  return g;
}

/// fft16 with scheduling marks (temporal edges) and a token feedback edge.
Graph marked_fft() {
  Graph g = dfglib::make_fft(16);
  SchedWmOptions opts;
  opts.domain.tau = 4;
  opts.k = 3;
  opts.epsilon = 0.3;
  EXPECT_FALSE(embed_local_watermarks(g, alice(), 4, opts).empty());
  (void)dfglib::add_feedback(g, 2);
  EXPECT_TRUE(g.has_token_edges());
  return g;
}

/// Every row of `g`'s view is the node's specification fan-in sources,
/// duplicates dropped after their first occurrence; dead ids are empty.
void expect_rows_match_graph(const Graph& g, const std::string& label) {
  const FaninView view = FaninView::build(g);
  ASSERT_EQ(view.node_capacity(), g.node_capacity()) << label;
  for (std::uint32_t v = 0; v < g.node_capacity(); ++v) {
    const NodeId n{v};
    std::vector<std::uint32_t> want;
    if (g.is_live(n)) {
      EXPECT_EQ(view.fid[v], cdfg::functional_id(g.node(n).kind)) << label;
      for (const cdfg::EdgeId e : g.fanin(n)) {
        const cdfg::Edge& ed = g.edge(e);
        if (!cdfg::EdgeFilter::specification().accepts(ed)) continue;
        if (std::ranges::find(want, ed.src.value) == want.end()) {
          want.push_back(ed.src.value);
        }
      }
    } else {
      EXPECT_EQ(view.fid[v], 0) << label;
      EXPECT_FALSE(view.is_live(n)) << label;
    }
    const auto row = view.inputs_of(n);
    EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), want)
        << label << " node " << v;
  }
}

/// At every executable root and tau, the cone gathered from the view and
/// the local CSR rows the carve indexes equal the Graph walk's.
void expect_cones_match_graph(const Graph& g, const std::string& label) {
  const FaninView view = FaninView::build(g);
  const crypto::Bitstream carve = alice().stream(DomainKey::kCarveTag);
  CarveScratch s;
  for (const int tau : {1, 3, 8}) {
    DomainKey key;
    key.tau = tau;
    for (const NodeId n : g.nodes()) {
      if (!cdfg::is_executable(g.node(n).kind)) continue;
      const std::string where =
          label + " tau " + std::to_string(tau) + " root " + g.node(n).name;
      const oracle::IndexedCone want = oracle::indexed_cone(g, n, tau);
      gather_cone(view, n, tau, s);
      ASSERT_EQ(s.cone.size(), want.cone.size()) << where;
      for (std::size_t i = 0; i < want.cone.size(); ++i) {
        ASSERT_EQ(s.cone[i].node, want.cone[i].node) << where;
        ASSERT_EQ(s.cone[i].distance, want.cone[i].distance) << where;
      }
      ASSERT_TRUE(carve_cone(view, carve, key, s).has_value()) << where;
      for (std::uint32_t i = 0; i < want.inputs.size(); ++i) {
        const auto row = s.inputs_of(i);
        ASSERT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()),
                  want.inputs[i])
            << where << " member " << i;
      }
    }
  }
}

TEST(FaninViewTest, RowsAreTheDeduplicatedSpecificationFanin) {
  const Graph dups = duplicate_edge_graph();
  expect_rows_match_graph(dups, "dups");
  const FaninView view = FaninView::build(dups);
  const auto row = view.inputs_of(dups.find("t"));
  EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()),
            (std::vector<std::uint32_t>{dups.find("s").value, dups.find("m").value,
                                        dups.find("a").value}))
      << "first occurrence kept";
  expect_rows_match_graph(marked_fft(), "fft16-marked");
  Graph mega = dfglib::make_mega_design({.operations = 1500});
  crypto::Bitstream draw = alice().stream("lwm/test-dead");
  mega.remove_node(pick_root(mega, draw));
  expect_rows_match_graph(mega, "mega with a dead id");
}

TEST(FaninViewTest, ConesAndLocalRowsMatchTheGraphWalk) {
  expect_cones_match_graph(duplicate_edge_graph(), "dups");
  expect_cones_match_graph(marked_fft(), "fft16-marked");
  for (const dfglib::MegaShape shape :
       {dfglib::MegaShape::kLayeredDeep, dfglib::MegaShape::kStitchedClones}) {
    dfglib::MegaConfig cfg;
    cfg.shape = shape;
    cfg.operations = 1500;
    expect_cones_match_graph(dfglib::make_mega_design(cfg),
                             "mega shape " + std::to_string(static_cast<int>(shape)));
  }
}

}  // namespace
}  // namespace lwm::wm
