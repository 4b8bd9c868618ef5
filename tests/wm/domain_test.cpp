#include "wm/domain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cdfg/serialize.h"
#include "cdfg/subgraph.h"
#include "dfglib/iir4.h"

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
  EXPECT_EQ(a1.ordered, a2.ordered);
}

TEST(SelectDomainTest, SignaturesCarveDifferently) {
  const Graph g = lwm::dfglib::iir4_parallel();
  DomainKey key;
  key.tau = 6;
  // keep probability 1/2 leaves room for divergence.
  const Domain a = select_domain(g, g.find("A9"), alice(), key);
  const Domain b = select_domain(g, g.find("A9"), eve(), key);
  // The ordered cone is signature-free...
  EXPECT_EQ(a.ordered, b.ordered);
  // ...but the carved subtree is keyed (extremely likely to differ on a
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
  const std::set<NodeId> ordered(d.ordered.begin(), d.ordered.end());
  for (const NodeId n : d.selected) {
    EXPECT_TRUE(ordered.count(n) != 0);
  }
  EXPECT_LE(d.selected.size(), d.ordered.size());
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

}  // namespace
}  // namespace lwm::wm
