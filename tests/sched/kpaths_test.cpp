#include "sched/kpaths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "cdfg/delay_model.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"

namespace lwm::sched {
namespace {

using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

// Oracle: exhaustively enumerate every source-to-sink path by DFS and
// return the delay-weighted lengths, sorted worst first.  Exponential,
// so only for the small dfglib kernels.
std::vector<int> all_path_lengths(const Graph& g, EdgeFilter filter) {
  std::vector<int> lengths;
  std::vector<NodeId> stack;
  auto dfs = [&](NodeId n, int len, auto&& self) -> void {
    len += g.node(n).delay;
    bool sink = true;
    for (EdgeId e : g.fanout(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed.kind)) continue;
      sink = false;
      self(ed.dst, len, self);
    }
    if (sink) lengths.push_back(len);
  };
  for (NodeId n : g.node_ids()) {
    bool source = true;
    for (EdgeId e : g.fanin(n)) {
      if (filter.accepts(g.edge(e).kind)) {
        source = false;
        break;
      }
    }
    if (source) dfs(n, 0, dfs);
  }
  std::sort(lengths.begin(), lengths.end(), std::greater<>());
  return lengths;
}

// Every returned path must be a real path: consecutive nodes connected
// by an accepted edge, source start, sink end, lengths summed right.
void expect_well_formed(const Graph& g, const CriticalPath& p,
                        EdgeFilter filter) {
  ASSERT_FALSE(p.nodes.empty());
  int len = 0, len_min = 0;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    const NodeId n = p.nodes[i];
    len += g.node(n).delay;
    len_min += g.node(n).delay_min;
    if (i + 1 == p.nodes.size()) break;
    bool connected = false;
    for (EdgeId e : g.fanout(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (filter.accepts(ed.kind) && ed.dst == p.nodes[i + 1]) {
        connected = true;
        break;
      }
    }
    EXPECT_TRUE(connected) << "gap after " << g.node(n).name;
  }
  EXPECT_EQ(p.length, len);
  EXPECT_EQ(p.length_min, len_min);
  EXPECT_LE(p.length_min, p.length);
}

void expect_matches_brute_force(const Graph& g, int k) {
  const EdgeFilter filter = EdgeFilter::all();
  const std::vector<int> oracle = all_path_lengths(g, filter);
  const std::vector<CriticalPath> paths = k_worst_paths(g, k, filter);
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(k), oracle.size());
  ASSERT_EQ(paths.size(), want) << g.name();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].length, oracle[i]) << g.name() << " path " << i;
    expect_well_formed(g, paths[i], filter);
    if (i > 0) {
      EXPECT_LE(paths[i].length, paths[i - 1].length);
    }
  }
  if (!paths.empty()) {
    EXPECT_EQ(paths[0].length, cdfg::critical_path_length(g, filter));
  }
}

TEST(KPathsTest, MatchesBruteForceOnKernels) {
  for (int k : {1, 3, 8, 64}) {
    expect_matches_brute_force(dfglib::iir4_parallel(), k);
    expect_matches_brute_force(dfglib::make_fir(16), k);
    expect_matches_brute_force(dfglib::make_biquad_cascade(4), k);
  }
}

TEST(KPathsTest, MatchesBruteForceUnderBoundedDelays) {
  for (int k : {1, 4, 16}) {
    Graph g = dfglib::make_fir(16);
    cdfg::DelayModel::dyno(8).annotate(g);
    expect_matches_brute_force(g, k);
    Graph iir = dfglib::iir4_parallel();
    cdfg::DelayModel::dyno(16).annotate(iir);
    expect_matches_brute_force(iir, k);
  }
}

TEST(KPathsTest, MatchesBruteForceOnSynthDesign) {
  const Graph g = dfglib::make_dsp_design("kp", 12, 60, 5);
  expect_matches_brute_force(g, 10);
}

TEST(KPathsTest, DeterministicAcrossCalls) {
  Graph g = dfglib::make_fir(32);
  cdfg::DelayModel::dyno(16).annotate(g);
  const auto a = k_worst_paths(g, 12);
  const auto b = k_worst_paths(g, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes) << "path " << i;
  }
}

TEST(KPathsTest, RejectsNonPositiveK) {
  const Graph g = dfglib::iir4_parallel();
  EXPECT_THROW((void)k_worst_paths(g, 0), std::invalid_argument);
  EXPECT_THROW((void)k_worst_paths(g, -3), std::invalid_argument);
}

TEST(KPathsTest, EmptyGraphYieldsNoPaths) {
  const Graph g("empty");
  EXPECT_TRUE(k_worst_paths(g, 5).empty());
}

TEST(KPathsTest, SingleChainHasExactlyOnePath) {
  // Single-operand ops: parallel edges would each count as a distinct
  // path (the enumeration is over edge chains, like the DFS oracle).
  cdfg::Builder b("chain");
  const NodeId in = b.input("in");
  const NodeId a = b.op(OpKind::kNot, "a", {in});
  const NodeId m = b.op(OpKind::kNot, "m", {a});
  b.output("out", m);
  const Graph g = std::move(b).build();
  const auto paths = k_worst_paths(g, 8);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length, cdfg::critical_path_length(g));
  EXPECT_EQ(paths[0].nodes.size(), 4u);
}

}  // namespace
}  // namespace lwm::sched
