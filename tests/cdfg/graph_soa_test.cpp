// Property test: GraphSoA must be a faithful frozen view of its source
// graph — same live nodes (densely renumbered in ascending id order),
// same per-node attributes, and the same filtered adjacency in the same
// edge insertion order.  Checked against every dfglib generator family
// and every fuzz-corpus CDFG that parses, under several edge filters.
#include "cdfg/graph_soa.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/op.h"
#include "cdfg/serialize.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"

namespace lwm::cdfg {
namespace {

// Expected dense adjacency of `n` computed the slow way from the graph.
std::vector<std::uint32_t> expect_adj(const Graph& g, const GraphSoA& soa,
                                      NodeId n, bool fanin) {
  std::vector<std::uint32_t> out;
  for (const EdgeId e : fanin ? g.fanin(n) : g.fanout(n)) {
    const Edge& ed = g.edge(e);
    if (!soa.filter().accepts(ed)) continue;  // full predicate: kind + tokens
    out.push_back(soa.dense_of(fanin ? ed.src : ed.dst));
  }
  return out;
}

void check_round_trip(const Graph& g, EdgeFilter filter) {
  SCOPED_TRACE(g.name());
  const GraphSoA soa(g, filter);
  ASSERT_EQ(soa.size(), g.node_count());

  // Dense ids enumerate the live nodes ascending; dense_of inverts.
  NodeId prev{0};
  std::size_t accepted_edges = 0;
  for (std::uint32_t d = 0; d < soa.size(); ++d) {
    const NodeId n = soa.node_of(d);
    if (d > 0) {
      EXPECT_LT(prev.value, n.value);
    }
    prev = n;
    EXPECT_EQ(soa.dense_of(n), d);

    const Node& node = g.node(n);
    EXPECT_EQ(soa.delay(d), node.delay);
    EXPECT_EQ(soa.unit_class(d), unit_class(node.kind));
    EXPECT_EQ(soa.executable(d), is_executable(node.kind));
    EXPECT_EQ(soa.delays()[d], node.delay);
    EXPECT_EQ(static_cast<UnitClass>(soa.classes()[d]), unit_class(node.kind));
    EXPECT_EQ(soa.executables()[d] != 0, is_executable(node.kind));

    const auto want_in = expect_adj(g, soa, n, /*fanin=*/true);
    const auto got_in = soa.fanin(d);
    ASSERT_EQ(got_in.size(), want_in.size());
    for (std::size_t i = 0; i < want_in.size(); ++i) {
      EXPECT_EQ(got_in[i], want_in[i]);
    }
    const auto want_out = expect_adj(g, soa, n, /*fanin=*/false);
    const auto got_out = soa.fanout(d);
    ASSERT_EQ(got_out.size(), want_out.size());
    for (std::size_t i = 0; i < want_out.size(); ++i) {
      EXPECT_EQ(got_out[i], want_out[i]);
    }
    accepted_edges += want_in.size();
  }
  EXPECT_EQ(soa.edge_entries(), accepted_edges);

  // Out-of-range lookups are kInvalid, not UB.
  EXPECT_EQ(soa.dense_of(NodeId{static_cast<std::uint32_t>(
                g.node_capacity() + 7)}),
            GraphSoA::kInvalid);
}

void check_all_filters(const Graph& g) {
  check_round_trip(g, EdgeFilter::all());
  check_round_trip(g, EdgeFilter::specification());
  check_round_trip(g, EdgeFilter{true, false, false});   // data only
  check_round_trip(g, EdgeFilter{false, false, false});  // nothing accepted
}

TEST(GraphSoaTest, DfglibKernelsRoundTrip) {
  check_all_filters(dfglib::make_fir(16));
  check_all_filters(dfglib::make_fft(16));
  check_all_filters(dfglib::make_biquad_cascade(6));
  check_all_filters(dfglib::iir4_parallel());
  check_all_filters(dfglib::make_dsp_design("soa_dsp", 9, 120, 5));
  check_all_filters(dfglib::make_layered_dag("soa_dag", 200, 10, {}, 7));
}

TEST(GraphSoaTest, MediabenchAppsRoundTrip) {
  for (const auto& app : dfglib::mediabench_table()) {
    check_all_filters(dfglib::make_mediabench_app(app));
  }
}

TEST(GraphSoaTest, TombstonedNodesAreSkipped) {
  Graph g = dfglib::make_fir(8);
  // Remove a couple of live nodes (and their edges) and re-check: the
  // dense view must skip the tombstones and dense_of must say kInvalid.
  std::vector<NodeId> live;
  for (NodeId n : g.nodes()) live.push_back(n);
  ASSERT_GE(live.size(), 4u);
  const NodeId dead1 = live[1], dead2 = live[live.size() / 2];
  g.remove_node(dead1);
  g.remove_node(dead2);
  const GraphSoA soa(g);
  EXPECT_EQ(soa.dense_of(dead1), GraphSoA::kInvalid);
  EXPECT_EQ(soa.dense_of(dead2), GraphSoA::kInvalid);
  check_all_filters(g);
}

TEST(GraphSoaTest, CsrLimitGuardRejectsOverflowingCounts) {
  // Graphs at the 32-bit CSR limits are too large to construct, so the
  // guard is exercised directly: counts past either limit must throw a
  // length_error naming the exceeded bound, never truncate.
  constexpr std::uint64_t kMax = 0xFFFF'FFFFull;
  EXPECT_NO_THROW(GraphSoA::check_csr_limits(0, 0));
  EXPECT_NO_THROW(GraphSoA::check_csr_limits(GraphSoA::kInvalid - 1, kMax));
  try {
    GraphSoA::check_csr_limits(GraphSoA::kInvalid, 0);
    FAIL() << "node overflow must throw";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("node"), std::string::npos);
  }
  try {
    GraphSoA::check_csr_limits(1, kMax + 1);
    FAIL() << "edge-entry overflow must throw";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("edge entries"), std::string::npos);
  }
}

TEST(GraphSoaTest, FuzzCorpusRoundTrip) {
  const std::filesystem::path dir = LWM_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t parsed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    auto result = parse_cdfg(buf.str(), entry.path().filename().string());
    if (!result) continue;  // crash fixtures: parser rejects them
    SCOPED_TRACE(entry.path().filename().string());
    check_all_filters(std::move(result).value());
    ++parsed;
  }
  // The corpus must keep at least one well-formed design or the test
  // would silently check nothing.
  EXPECT_GE(parsed, 1u);
}

}  // namespace
}  // namespace lwm::cdfg
