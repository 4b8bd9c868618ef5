#include "cdfg/serialize.h"

#include <gtest/gtest.h>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"

namespace lwm::cdfg {
namespace {

TEST(SerializeTest, RoundTripPreservesStructure) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const std::string text = to_text(g);
  const Graph h = parse_cdfg(text).value();
  EXPECT_EQ(h.name(), g.name());
  EXPECT_EQ(h.node_count(), g.node_count());
  EXPECT_EQ(h.edge_count(), g.edge_count());
  EXPECT_EQ(to_text(h), text) << "serialization is a fixed point";
}

TEST(SerializeTest, PreservesKindsDelaysAndEdgeKinds) {
  Builder b("mix");
  const NodeId in = b.input("in");
  const NodeId m = b.graph().add_node(OpKind::kMul, "m", 3);
  b.graph().add_edge(in, m);
  const NodeId a = b.op(OpKind::kAdd, "a", {m});
  b.graph().add_edge(m, a, EdgeKind::kControl);
  b.graph().add_edge(m, a, EdgeKind::kTemporal);
  b.output("o", a);
  const Graph g = std::move(b).build();

  const Graph h = parse_cdfg(to_text(g)).value();
  EXPECT_EQ(h.node(h.find("m")).delay, 3);
  EXPECT_EQ(h.node(h.find("m")).kind, OpKind::kMul);
  EXPECT_TRUE(h.has_edge(h.find("m"), h.find("a"), EdgeKind::kControl));
  EXPECT_TRUE(h.has_edge(h.find("m"), h.find("a"), EdgeKind::kTemporal));
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  const Graph g = parse_cdfg(
      "cdfg t\n"
      "# a comment\n"
      "\n"
      "node a add\n"
      "node i input\n"
      "edge i a\n").value();
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(SerializeTest, BoundedDelayRoundTrip) {
  Builder b("bounds");
  const NodeId in = b.input("in");
  const NodeId m = b.graph().add_node(OpKind::kMul, "m", 6);
  b.graph().add_edge(in, m);
  b.graph().set_delay_bounds(m, 2, 6);
  b.output("o", m);
  const Graph g = std::move(b).build();

  const std::string text = to_text(g);
  EXPECT_NE(text.find("node m mul 2:6"), std::string::npos) << text;
  const Graph h = parse_cdfg(text).value();
  EXPECT_EQ(h.node(h.find("m")).delay_min, 2);
  EXPECT_EQ(h.node(h.find("m")).delay, 6);
  EXPECT_TRUE(h.has_bounded_delays());
  EXPECT_EQ(to_text(h), text) << "bounded serialization is a fixed point";
}

TEST(SerializeTest, ParsesBoundedDelaySyntax) {
  const Graph g = parse_cdfg(
      "cdfg t\n"
      "node i input\n"
      "node a add 1:4\n"
      "node b add 3\n"
      "node o output\n"
      "edge i a\nedge a b\nedge b o\n").value();
  EXPECT_EQ(g.node(g.find("a")).delay_min, 1);
  EXPECT_EQ(g.node(g.find("a")).delay, 4);
  EXPECT_FALSE(g.node(g.find("b")).bounded_delay());
  EXPECT_EQ(g.node(g.find("b")).delay, 3);
}

TEST(SerializeTest, RejectsMalformedDelayBounds) {
  for (const char* bad : {"node a add 4:1\n", "node a add 1:\n",
                          "node a add :4\n", "node a add 1:2:3\n",
                          "node a add -1:4\n", "node a add 1:x\n",
                          "node a add :\n"}) {
    EXPECT_FALSE(parse_cdfg(std::string("cdfg t\n") + bad).ok())
        << bad;
  }
}

TEST(SerializeTest, ErrorsCarryLineNumbers) {
  const auto r = parse_cdfg("cdfg t\nnode a add\nedge a zz\n");
  ASSERT_FALSE(r.ok()) << "expected parse error";
  const std::string what = r.diag().to_string();
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
}

TEST(SerializeTest, RejectsBadInput) {
  EXPECT_FALSE(parse_cdfg("").ok());
  EXPECT_FALSE(parse_cdfg("node a add\n").ok()) << "missing header";
  EXPECT_FALSE(parse_cdfg("cdfg t\nnode a frob\n").ok());
  EXPECT_FALSE(parse_cdfg("cdfg t\nnode a add\nnode a add\n").ok());
  EXPECT_FALSE(parse_cdfg("cdfg t\nnode a add\nedge a a\n").ok())
      << "unknown dst and self-loop both fail";
  EXPECT_FALSE(parse_cdfg("cdfg t\nwat a b\n").ok());
  EXPECT_FALSE(
      parse_cdfg("cdfg t\nnode a add\nnode b add\nedge a b sideways\n").ok());
}

}  // namespace
}  // namespace lwm::cdfg
