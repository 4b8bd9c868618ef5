#include "cdfg/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "../scaling.h"
#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"

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

std::string mega_text(int ops) {
  dfglib::MegaConfig cfg;
  cfg.operations = ops;
  cfg.seed = 3;
  return to_text(dfglib::make_mega_design(cfg));
}

TEST(SerializeTest, ParseScalesLinearlyInDesignSize) {
  // 4x the operations: a linear parse takes ~4x as long, a name lookup
  // that scans or rehashes per line ~16x.
  const std::string small = mega_text(8'000);
  const std::string large = mega_text(32'000);
  const auto parse = [](const std::string& text) {
    return [&text] { EXPECT_TRUE(parse_cdfg(text).ok()); };
  };
  const double ratio = scaling::ratio(parse(small), parse(large), 8.0);
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_LT(ratio, 8.0);
}

// ---- bulk build vs incremental build ------------------------------------

/// Parses `text` from both sources; each must succeed.
std::vector<Graph> parse_both(const std::string& text) {
  std::vector<Graph> out;
  auto from_text = parse_cdfg(text, "<text>");
  EXPECT_TRUE(from_text.ok()) << from_text.diag().to_string();
  if (from_text.ok()) out.push_back(std::move(from_text).value());
  std::istringstream is(text);
  // Small chunks so lines straddle refills.
  auto from_stream =
      parse_cdfg(io::LineCursor(is, io::StreamLimits{64, 1 << 20}), "<stream>");
  EXPECT_TRUE(from_stream.ok()) << from_stream.diag().to_string();
  if (from_stream.ok()) out.push_back(std::move(from_stream).value());
  return out;
}

/// Same nodes, edges and fan-in/fan-out spans, id for id.
void expect_same_graph(const Graph& got, const Graph& want) {
  EXPECT_EQ(got.name(), want.name());
  ASSERT_EQ(got.node_capacity(), want.node_capacity());
  ASSERT_EQ(got.edge_capacity(), want.edge_capacity());
  EXPECT_EQ(got.node_count(), want.node_count());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  for (const NodeId n : want.nodes()) {
    const Node& a = got.node(n);
    const Node& b = want.node(n);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind) << b.name;
    EXPECT_EQ(a.delay, b.delay) << b.name;
    EXPECT_EQ(a.delay_min, b.delay_min) << b.name;
    const auto fi = got.fanin(n);
    const auto fo = got.fanout(n);
    EXPECT_TRUE(std::ranges::equal(fi, want.fanin(n))) << b.name;
    EXPECT_TRUE(std::ranges::equal(fo, want.fanout(n))) << b.name;
  }
  for (const EdgeId e : want.edges()) {
    const Edge& a = got.edge(e);
    const Edge& b = want.edge(e);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tokens, b.tokens);
  }
}

TEST(SerializeTest, BulkBuildEqualsIncrementalBuild) {
  std::vector<Graph> cases;
  cases.push_back(lwm::dfglib::make_fir(16));
  cases.push_back(lwm::dfglib::make_fft(8));
  cases.push_back(lwm::dfglib::make_biquad_cascade(4));
  cases.push_back(lwm::dfglib::iir4_parallel());
  {
    Graph g = lwm::dfglib::make_fft(8);
    (void)lwm::dfglib::add_feedback(g, 2);
    // Token self-loops: ops reading their own previous-iteration result.
    g.add_edge(NodeId{5}, NodeId{5}, EdgeKind::kData, 1);
    g.add_edge(NodeId{9}, NodeId{9}, EdgeKind::kControl, 3);
    cases.push_back(std::move(g));
  }
  {
    Graph g = lwm::dfglib::make_biquad_cascade(3);
    g.set_delay_bounds(NodeId{4}, 1, 3);
    g.set_delay_bounds(NodeId{6}, 0, 2);
    g.set_delay_bounds(NodeId{7}, 2, 2);
    cases.push_back(std::move(g));
  }
  {
    lwm::dfglib::MegaConfig cfg;
    cfg.operations = 3'000;
    cfg.seed = 11;
    cases.push_back(lwm::dfglib::make_mega_design(cfg));
  }
  for (const Graph& g : cases) {
    SCOPED_TRACE(g.name());
    for (const Graph& h : parse_both(to_text(g))) expect_same_graph(h, g);
  }
}

TEST(SerializeTest, BulkBuildEqualsIncrementalOnInterleavedLines) {
  // Node and edge lines interleaved, and NodeIds that are not a
  // topological order (c -> a with c declared last), so acyclicity takes
  // the search instead of the id-order proof.
  const std::string text =
      "cdfg inter\n"
      "node a add\n"
      "node b mul 2\n"
      "edge a b\n"
      "node c sub 1:4\n"
      "edge c a control\n"
      "edge b c temporal 2\n"
      "edge b b 1\n"
      "node d add\n"
      "edge c d\n"
      "edge a d\n";
  Graph want("inter");
  const NodeId a = want.add_node(OpKind::kAdd, "a");
  const NodeId b = want.add_node(OpKind::kMul, "b", 2);
  want.add_edge(a, b);
  const NodeId c = want.add_node(OpKind::kSub, "c");
  want.set_delay_bounds(c, 1, 4);
  want.add_edge(c, a, EdgeKind::kControl);
  want.add_edge(b, c, EdgeKind::kTemporal, 2);
  want.add_edge(b, b, EdgeKind::kData, 1);
  const NodeId d = want.add_node(OpKind::kAdd, "d");
  want.add_edge(c, d);
  want.add_edge(a, d);
  for (const Graph& h : parse_both(text)) expect_same_graph(h, want);
}

TEST(SerializeTest, BulkBuildBlamesTheSameCycleLine) {
  // The closing line is the latest-declared edge of the cycle the
  // search finds on the incrementally built graph.
  struct Case {
    const char* what;
    std::string text;
    int line;
    std::string message;
  };
  std::vector<Case> cases = {
      {"triangle",
       "cdfg t\nnode a add\nnode b add\nnode c add\nedge a b\nedge b c\n"
       "edge c a\n",
       7,
       "edge closes a token-free cycle: cycle [a -> b -> c -> a] (a "
       "loop-carried dependence needs an initial-token count: 'edge <src> "
       "<dst> [kind] <tokens>')"},
      {"early closing edge",
       "cdfg t\nnode a add\nnode b add\nnode c add\nedge c a\nedge a b\n"
       "edge b c\n",
       7, ""},
  };
  // A mega design with one back-edge from a late node to an early one.
  lwm::dfglib::MegaConfig cfg;
  cfg.operations = 2'000;
  cfg.seed = 5;
  const Graph mega = lwm::dfglib::make_mega_design(cfg);
  const NodeId sink = NodeId{static_cast<std::uint32_t>(mega.node_capacity() - 1)};
  const NodeId head = mega.edge(mega.fanin(sink).front()).src;
  const NodeId tail = mega.edge(mega.fanin(head).front()).src;
  cases.push_back({"mega back-edge",
                   to_text(mega) + "edge " + mega.node(sink).name + " " +
                       mega.node(tail).name + "\n",
                   0, ""});
  for (Case& c : cases) {
    SCOPED_TRACE(c.what);
    // Incremental reference: every edge added in file order, the search
    // run on the result, the cycle's latest edge line blamed.
    Graph ref;
    std::vector<int> edge_lines;
    std::istringstream in(c.text);
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
      std::istringstream ls(line);
      std::string dir, x, y;
      ls >> dir >> x >> y;
      if (dir == "node") {
        ref.add_node(*op_from_name(y), x);
      } else if (dir == "edge") {
        ref.add_edge(ref.find(x), ref.find(y));
        edge_lines.push_back(lineno);
      }
    }
    const CycleInfo cycle = find_cycle(ref, EdgeFilter::all());
    ASSERT_TRUE(cycle.found());
    int want_line = 0;
    for (const EdgeId e : cycle.edges) {
      want_line = std::max(want_line, edge_lines[e.value]);
    }
    if (c.line != 0) {
      EXPECT_EQ(want_line, c.line);
    }

    std::istringstream is(c.text);
    for (auto r : {parse_cdfg(c.text, "t.cdfg"),
                   parse_cdfg(io::LineCursor(is), "t.cdfg")}) {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.diag().line, want_line) << r.diag().to_string();
      EXPECT_EQ(r.diag().column, 1);
      EXPECT_NE(r.diag().message.find(cycle.describe(ref)), std::string::npos)
          << r.diag().to_string();
      if (!c.message.empty()) {
        EXPECT_EQ(r.diag().message, c.message);
      }
    }
  }
}

TEST(SerializeTest, TokenFreeSelfLoopKeepsItsDiagnostic) {
  const std::string text = "cdfg t\nnode a add\nnode b add\n  edge b b\nedge a b\n";
  std::istringstream is(text);
  for (auto r : {parse_cdfg(text, "t.cdfg"), parse_cdfg(io::LineCursor(is), "t.cdfg")}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().line, 4);
    EXPECT_EQ(r.diag().column, 3);
    EXPECT_EQ(r.diag().message,
              "Graph::add_edge: token-free self-loop on node 'b'");
  }
}

}  // namespace
}  // namespace lwm::cdfg
