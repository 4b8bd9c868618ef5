// marked_graph_test — marked-graph (token back-edge) structure: the
// Edge::tokens field, the `edge a b [kind] [tokens]` text format, the
// token-gated EdgeFilter, and the cycle diagnostics every DAG analysis
// now reports instead of hanging or asserting.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "cdfg/normalize.h"
#include "cdfg/serialize.h"
#include "cdfg/validate.h"

namespace lwm::cdfg {
namespace {

Graph parse_ok(const std::string& text) {
  auto r = parse_cdfg(text, "<test>");
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.diag().message);
  return std::move(r).value();
}

io::Diagnostic parse_fail(const std::string& text) {
  auto r = parse_cdfg(text, "<test>");
  EXPECT_FALSE(r.ok()) << "expected a parse failure";
  return r.ok() ? io::Diagnostic{} : r.diag();
}

constexpr const char* kMarkedText =
    "cdfg marked\n"
    "node in1 input\n"
    "node a add\n"
    "node m mul 3\n"
    "node out1 output\n"
    "edge in1 a\n"
    "edge a m\n"
    "edge m out1\n"
    "edge m a 2\n";

TEST(MarkedGraphTest, TokensFieldAndAccessors) {
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kMul, "b");
  const EdgeId fwd = g.add_edge(a, b);
  const EdgeId back = g.add_edge(b, a, EdgeKind::kData, 2);
  EXPECT_EQ(g.edge(fwd).tokens, 0);
  EXPECT_FALSE(g.edge(fwd).carried());
  EXPECT_EQ(g.edge(back).tokens, 2);
  EXPECT_TRUE(g.edge(back).carried());
  EXPECT_TRUE(g.has_token_edges());
}

TEST(MarkedGraphTest, NegativeTokensRejected) {
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  EXPECT_THROW((void)g.add_edge(a, b, EdgeKind::kData, -1),
               std::invalid_argument);
}

TEST(MarkedGraphTest, SelfLoopNeedsTokens) {
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  EXPECT_THROW((void)g.add_edge(a, a), std::invalid_argument);
  const EdgeId e = g.add_edge(a, a, EdgeKind::kData, 1);
  EXPECT_TRUE(g.edge(e).carried());
}

TEST(MarkedGraphTest, FilterGatesTokenEdges) {
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kMul, "b");
  const Edge fwd = g.edge(g.add_edge(a, b));
  const Edge back = g.edge(g.add_edge(b, a, EdgeKind::kData, 1));
  EXPECT_TRUE(EdgeFilter::all().accepts(fwd));
  EXPECT_FALSE(EdgeFilter::all().accepts(back));
  EXPECT_FALSE(EdgeFilter::specification().accepts(back));
  EXPECT_TRUE(EdgeFilter::periodic().accepts(back));
  // The skeleton of a marked graph is a DAG: every default analysis runs,
  // and only the forward edge constrains the timing windows.
  EXPECT_EQ(topo_order(g).size(), 2u);
  const TimingInfo t = compute_timing(g);
  EXPECT_EQ(t.asap[a.value], 0);
  EXPECT_EQ(t.asap[b.value], g.node(a).delay);
  EXPECT_EQ(t.critical_path, g.node(a).delay + g.node(b).delay);
  EXPECT_NO_THROW(validate_or_throw(g));
  // Admitting the token edge makes the same relation cyclic.
  EXPECT_THROW((void)topo_order(g, EdgeFilter::periodic()), std::runtime_error);
  EXPECT_THROW((void)compute_timing(g, -1, EdgeFilter::periodic()),
               std::runtime_error);
}

TEST(MarkedGraphTest, TokensRoundTripThroughText) {
  const Graph g = parse_ok(kMarkedText);
  EXPECT_TRUE(g.has_token_edges());
  const std::string text = to_text(g);
  EXPECT_NE(text.find("edge m a 2"), std::string::npos) << text;
  const Graph g2 = parse_ok(text);
  EXPECT_EQ(to_text(g2), text);

  // The stream form accepts the identical language.
  std::istringstream is(text);
  auto streamed = parse_cdfg(io::LineCursor(is), "<stream>");
  ASSERT_TRUE(streamed.ok()) << streamed.diag().message;
  EXPECT_EQ(to_text(streamed.value()), text);
}

TEST(MarkedGraphTest, KindAndTokensRoundTrip) {
  const Graph g = parse_ok(
      "cdfg t\n"
      "node a add\n"
      "node b add\n"
      "edge a b\n"
      "edge b a control 3\n");
  const std::string text = to_text(g);
  EXPECT_NE(text.find("edge b a control 3"), std::string::npos) << text;
  EXPECT_EQ(to_text(parse_ok(text)), text);
}

TEST(MarkedGraphTest, ParserRejectsBadTokenCounts) {
  const io::Diagnostic neg = parse_fail(
      "cdfg t\nnode a add\nnode b add\nedge a b\nedge b a -1\n");
  EXPECT_EQ(neg.line, 5);
  EXPECT_NE(neg.message.find("token count must be a positive integer"),
            std::string::npos)
      << neg.message;

  const io::Diagnostic zero = parse_fail(
      "cdfg t\nnode a add\nnode b add\nedge a b\nedge b a 0\n");
  EXPECT_NE(zero.message.find("positive integer"), std::string::npos);

  const io::Diagnostic trail = parse_fail(
      "cdfg t\nnode a add\nnode b add\nedge a b\nedge b a data 2 junk\n");
  EXPECT_NE(trail.message.find("trailing garbage"), std::string::npos);
}

TEST(MarkedGraphTest, ParserBlamesTokenFreeCycleLine) {
  const io::Diagnostic d = parse_fail(
      "cdfg looped\n"
      "node a add\n"
      "node b add\n"
      "node c mul 3\n"
      "edge a b\n"
      "edge b c\n"
      "edge c a\n");
  // The blamed line is the last-declared cycle edge — the one that
  // closed it — and the message names the cycle and the repair.
  EXPECT_EQ(d.line, 7);
  EXPECT_NE(d.message.find("token-free cycle"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("a -> b -> c -> a"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("initial-token count"), std::string::npos);

  // The same text with tokens on the back-edge is a legal marked graph.
  (void)parse_ok(
      "cdfg looped\n"
      "node a add\n"
      "node b add\n"
      "node c mul 3\n"
      "edge a b\n"
      "edge b c\n"
      "edge c a 1\n");
}

TEST(MarkedGraphTest, TopoOrderNamesTheCycle) {
  // Satellite regression: an unintended cycle used to surface as a bare
  // "precedence relation is cyclic" with no way to find the back-edge.
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "alpha");
  const NodeId b = g.add_node(OpKind::kMul, "beta");
  const NodeId c = g.add_node(OpKind::kAdd, "gamma");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  try {
    (void)topo_order(g);
    FAIL() << "topo_order must throw on a cycle";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("alpha -> beta -> gamma -> alpha"), std::string::npos)
        << msg;
  }
  // Every timing analysis refuses the cycle up front, in bounded time,
  // with the same located cycle and a hint at the fix.
  try {
    (void)compute_timing(g);
    FAIL() << "compute_timing must throw on a cycle";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cyclic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("alpha -> beta -> gamma -> alpha"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("tokens"), std::string::npos) << msg;
  }
}

TEST(MarkedGraphTest, FindCycleReportsEdgesInOrder) {
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  g.add_edge(a, b);
  const EdgeId closing = g.add_edge(b, a);  // direct add bypasses parsing
  const CycleInfo cycle = find_cycle(g, EdgeFilter::all());
  ASSERT_TRUE(cycle.found());
  ASSERT_EQ(cycle.nodes.size(), 2u);
  ASSERT_EQ(cycle.edges.size(), 2u);
  // edges[i] connects nodes[i] -> nodes[(i+1) % size].
  for (std::size_t i = 0; i < cycle.edges.size(); ++i) {
    const Edge& e = g.edge(cycle.edges[i]);
    EXPECT_EQ(e.src, cycle.nodes[i]);
    EXPECT_EQ(e.dst, cycle.nodes[(i + 1) % cycle.nodes.size()]);
  }
  EXPECT_TRUE(cycle.edges[0] == closing || cycle.edges[1] == closing);
}

TEST(MarkedGraphTest, ValidateRejectsTokenFreeCycles) {
  Graph g;
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  const auto issues = validate(g);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& i : issues) {
    if (i.message.find("token-free cycle") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);

  // With tokens the same shape validates clean.
  Graph mg;
  const NodeId ma = mg.add_node(OpKind::kAdd, "a");
  const NodeId mb = mg.add_node(OpKind::kAdd, "b");
  mg.add_edge(ma, mb);
  mg.add_edge(mb, ma, EdgeKind::kData, 1);
  EXPECT_NO_THROW(validate_or_throw(mg));
}

TEST(MarkedGraphTest, NormalizePreservesTokenEdges) {
  // collapse_unit_ops must not splice out an op whose incident edge
  // carries tokens — the token count has nowhere to go.
  const Graph g = parse_ok(
      "cdfg t\n"
      "node in1 input\n"
      "node u unit\n"
      "node a add\n"
      "node out1 output\n"
      "edge in1 u\n"
      "edge u a\n"
      "edge a out1\n"
      "edge a u 1\n");
  Graph n = g;
  (void)normalize_unit_ops(n);
  EXPECT_TRUE(n.has_token_edges());
  bool token_edge_alive = false;
  for (const EdgeId e : n.edges()) {
    if (n.edge(e).carried()) token_edge_alive = true;
  }
  EXPECT_TRUE(token_edge_alive);
}

TEST(MarkedGraphTest, CycleCorpusFilesStayRejected) {
  // Fuzz-corpus regression pins: the cyclic/token fixtures must keep
  // parsing to the same verdicts.
  const std::filesystem::path dir = LWM_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  const auto read = [&](const char* name) {
    std::ifstream in(dir / name);
    EXPECT_TRUE(in.good()) << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_TRUE(parse_cdfg(read("valid-marked-graph"), "corpus").ok());
  EXPECT_TRUE(parse_cdfg(read("valid-token-self-loop"), "corpus").ok());
  EXPECT_FALSE(parse_cdfg(read("bug-token-free-cycle"), "corpus").ok());
  EXPECT_FALSE(parse_cdfg(read("bug-token-free-self-loop"), "corpus").ok());
  EXPECT_FALSE(parse_cdfg(read("bug-token-negative"), "corpus").ok());
  EXPECT_FALSE(parse_cdfg(read("bug-token-zero"), "corpus").ok());
  EXPECT_FALSE(parse_cdfg(read("bug-token-trailing-garbage"), "corpus").ok());
}

}  // namespace
}  // namespace lwm::cdfg
