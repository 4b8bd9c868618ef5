// Property tests for the flat locality carve against the reference
// hash-map carve of locality_oracle.h: the ordered locality and
// `selected` must be identical at every executable root, at every tau,
// under two signatures — on mega-designs of every shape, on every dfglib
// kernel, on a marked graph carrying temporal and token edges (the
// carve's edge filter) and on hand localities whose sibling comparisons
// fall through to the last keys.  Also pins the per-batch carve
// statistics against the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "detect_oracle.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "locality_oracle.h"
#include "obs/obs.h"
#include "sched/list_sched.h"
#include "wm/detector.h"
#include "wm/domain.h"
#include "wm/sched_constraints.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "not-alice"}; }

constexpr int kTaus[] = {1, 2, 3, 4, 5, 8, 12};

/// Every executable root at every tau under both signatures; the flat
/// carve draws from one pre-keyed stream per signature.
void expect_carves_match_oracle(const Graph& g, const std::string& label,
                                std::span<const int> taus = kTaus) {
  const crypto::Signature sigs[] = {alice(), eve()};
  std::vector<crypto::Bitstream> carves;
  for (const crypto::Signature& sig : sigs) {
    carves.push_back(sig.stream(DomainKey::kCarveTag));
  }
  for (const int tau : taus) {
    DomainKey key;
    key.tau = tau;
    for (const NodeId n : g.nodes()) {
      if (!cdfg::is_executable(g.node(n).kind)) continue;
      const std::string where =
          label + " tau " + std::to_string(tau) + " root " + g.node(n).name;
      ASSERT_EQ(order_locality(g, n, tau), oracle::order_locality(g, n, tau))
          << where;
      for (std::size_t k = 0; k < carves.size(); ++k) {
        const Domain want = oracle::select_domain(g, n, sigs[k], key);
        const Domain got = select_domain(g, n, carves[k], key);
        ASSERT_EQ(got.root, want.root) << where;
        ASSERT_EQ(got.selected, want.selected) << where << " " << sigs[k].owner();
      }
    }
  }
}

struct MegaCase {
  dfglib::MegaShape shape;
  std::uint64_t seed;
  const char* name;
};

class LocalityOracleMegaTest : public ::testing::TestWithParam<MegaCase> {};

TEST_P(LocalityOracleMegaTest, EveryRootMatchesOracle) {
  dfglib::MegaConfig cfg;
  cfg.shape = GetParam().shape;
  cfg.seed = GetParam().seed;
  cfg.operations = 2000;
  expect_carves_match_oracle(dfglib::make_mega_design(cfg), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LocalityOracleMegaTest,
    ::testing::Values(
        MegaCase{dfglib::MegaShape::kLayeredDeep, 1, "LayeredDeep1"},
        MegaCase{dfglib::MegaShape::kLayeredDeep, 2, "LayeredDeep2"},
        MegaCase{dfglib::MegaShape::kUnrolledKernel, 1, "UnrolledKernel1"},
        MegaCase{dfglib::MegaShape::kUnrolledKernel, 2, "UnrolledKernel2"},
        MegaCase{dfglib::MegaShape::kStitchedClones, 1, "StitchedClones1"},
        MegaCase{dfglib::MegaShape::kStitchedClones, 2, "StitchedClones2"}),
    [](const ::testing::TestParamInfo<MegaCase>& info) {
      return std::string(info.param.name);
    });

TEST(LocalityOracleTest, EveryKernelMatchesOracle) {
  for (const int taps : {1, 2, 5, 8, 16}) {
    expect_carves_match_oracle(dfglib::make_fir(taps), "fir" + std::to_string(taps));
  }
  for (const int points : {2, 4, 8, 16}) {
    expect_carves_match_oracle(dfglib::make_fft(points),
                               "fft" + std::to_string(points));
  }
  for (const int sections : {1, 2, 4}) {
    expect_carves_match_oracle(dfglib::make_biquad_cascade(sections),
                               "biquad" + std::to_string(sections));
  }
  expect_carves_match_oracle(dfglib::iir4_parallel(), "iir4");
}

TEST(LocalityOracleTest, MarkedGraphWithTemporalAndTokenEdgesMatchesOracle) {
  Graph g = dfglib::make_fft(16);
  SchedWmOptions opts;
  opts.domain.tau = 4;
  opts.k = 3;
  opts.min_edges = 1;
  opts.epsilon = 0.3;
  ASSERT_FALSE(embed_local_watermarks(g, alice(), 4, opts).empty());
  (void)dfglib::add_feedback(g, 2);
  int temporal = 0;
  for (const cdfg::EdgeId e : g.edges_of(cdfg::EdgeKind::kTemporal)) {
    temporal += g.is_live(e) ? 1 : 0;
  }
  ASSERT_GT(temporal, 0);
  ASSERT_TRUE(g.has_token_edges());
  expect_carves_match_oracle(g, "fft16-marked");
}

/// Position of `n` in the ordered locality of `root`.
std::ptrdiff_t rank_of(const Graph& g, NodeId root, int tau, NodeId n) {
  const std::vector<NodeId> order = order_locality(g, root, tau);
  return std::ranges::find(order, n) - order.begin();
}

/// A chain of `length` single-input `kind` ops below `top`; returns the
/// last op (`top` itself when `length` is 0).
NodeId hang_chain(Graph& g, NodeId top, int length, cdfg::OpKind kind,
                  const std::string& prefix) {
  for (int k = 1; k <= length; ++k) {
    const NodeId next = g.add_node(kind, prefix + std::to_string(k));
    g.add_edge(next, top);
    top = next;
  }
  return top;
}

TEST(LocalityOracleTest, IsomorphicSiblingsFallThroughToDiscovery) {
  // R's inputs A and B head identical chains that run past tau, so C1,
  // every K(x) and every phi(x) tie and discovery position decides.
  for (int tau = 1; tau <= 12; ++tau) {
    Graph g;
    const NodeId r = g.add_node(cdfg::OpKind::kAdd, "R");
    const NodeId a = g.add_node(cdfg::OpKind::kMul, "A");
    const NodeId b = g.add_node(cdfg::OpKind::kMul, "B");
    g.add_edge(a, r);
    g.add_edge(b, r);
    for (const auto& [top, name] : {std::pair{a, "a"}, std::pair{b, "b"}}) {
      const NodeId last = hang_chain(g, top, tau + 1, cdfg::OpKind::kSub, name);
      g.add_edge(g.add_node(cdfg::OpKind::kInput, std::string(name) + "in"), last);
    }
    const std::string label = "isomorphic tau " + std::to_string(tau);
    EXPECT_LT(rank_of(g, r, tau, a), rank_of(g, r, tau, b)) << label;
    const int taus[] = {tau};
    expect_carves_match_oracle(g, label, taus);
  }
}

TEST(LocalityOracleTest, SiblingsPartedOnlyByLastPhi) {
  // A and B head equal chains of tau - 1 ops that end in an input for A
  // and a constant for B at distance tau.  R also reads both leaves, so
  // they lie in the cone; C1 and every K(x) tie, and phi parts A from B
  // only at x = tau - 1, against their discovery order.
  for (int tau = 1; tau <= 12; ++tau) {
    Graph g;
    const NodeId r = g.add_node(cdfg::OpKind::kAdd, "R");
    const NodeId a = g.add_node(cdfg::OpKind::kMul, "A");
    const NodeId b = g.add_node(cdfg::OpKind::kMul, "B");
    const NodeId za = g.add_node(cdfg::OpKind::kInput, "ZA");
    const NodeId zb = g.add_node(cdfg::OpKind::kConst, "ZB");
    for (const NodeId in : {a, b, za, zb}) g.add_edge(in, r);
    g.add_edge(za, hang_chain(g, a, tau - 1, cdfg::OpKind::kSub, "a"));
    g.add_edge(zb, hang_chain(g, b, tau - 1, cdfg::OpKind::kSub, "b"));
    const std::string label = "last phi tau " + std::to_string(tau);
    EXPECT_LT(rank_of(g, r, tau, b), rank_of(g, r, tau, a)) << label;
    const int taus[] = {tau};
    expect_carves_match_oracle(g, label, taus);
  }
}

/// The batch fixture of the detector tests: six tau-5 marks and one
/// tau-7 record, so the scan carves two key groups.
struct Archive {
  Graph graph;
  std::vector<SchedRecord> records;
  sched::Schedule schedule;
};

[[maybe_unused]] Archive make_archive() {
  Archive a{dfglib::make_dsp_design("batch", 14, 220, 501), {}, {}};
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  for (const auto& m : embed_local_watermarks(a.graph, alice(), 6, opts)) {
    a.records.push_back(SchedRecord::from(m, a.graph));
  }
  a.schedule = sched::list_schedule(a.graph);
  a.graph.strip_temporal_edges();
  SchedRecord foreign = a.records.front();
  foreign.domain.tau = 7;
  a.records.push_back(foreign);
  return a;
}

/// True when the multiset of `ops` outgrows every record of `records`
/// with key `key` ending in `root_op`: larger than the largest, or more
/// of some op than any holds.  The detector then cuts the carve.
[[maybe_unused]] bool outgrows_candidates(std::span<const SchedRecord> records,
                                          const DomainKey& key, int root_op,
                                          std::span<const int> ops) {
  std::size_t size = 0;
  std::map<int, int> most;
  for (const SchedRecord& r : records) {
    if (r.domain != key || r.subtree_ops.back() != root_op) continue;
    size = std::max(size, r.subtree_ops.size());
    std::map<int, int> count;
    for (const int op : r.subtree_ops) most[op] = std::max(most[op], ++count[op]);
  }
  std::map<int, int> count;
  for (const int op : ops) {
    if (++count[op] > most[op]) return true;
  }
  return ops.size() > size;
}

TEST(CarveTallyTest, DetectTotalsMatchOracleCarves) {
#if LWM_OBS_ENABLED
  // The scan carves (root, key group) exactly when some record of the
  // group ends in the root's operation and fits in the root's cone; the
  // oracle carve gives each carve's size, and whether T outgrows every
  // record of the group ending in the root's op, which cuts the carve.
  // Every carve counts in wm/domains_carved; wm/domain_size holds the
  // completed ones.
  const Archive a = make_archive();
  std::uint64_t carves = 0;
  std::uint64_t cut = 0;
  std::uint64_t size_sum = 0;
  for (const NodeId n : a.graph.nodes()) {
    if (!cdfg::is_executable(a.graph.node(n).kind)) continue;
    std::vector<DomainKey> keys;
    for (const SchedRecord& r : a.records) {
      if (!oracle::may_carve(a.graph, n, r)) continue;
      if (std::ranges::find(keys, r.domain) != keys.end()) continue;
      keys.push_back(r.domain);
      ++carves;
      const Domain d = oracle::select_domain(a.graph, n, alice(), r.domain);
      std::vector<int> ops;
      for (const NodeId m : d.selected) {
        ops.push_back(cdfg::functional_id(a.graph.node(m).kind));
      }
      if (outgrows_candidates(a.records, r.domain, ops.back(), ops)) {
        ++cut;
      } else {
        size_sum += d.selected.size();
      }
    }
  }
  ASSERT_GT(carves, cut);
  ASSERT_GT(cut, 0u);

  obs::Counter& carved = obs::Registry::instance().counter("wm/domains_carved");
  obs::Counter& cuts = obs::Registry::instance().counter("wm/carves_cut");
  obs::Histogram& sizes = obs::Registry::instance().histogram("wm/domain_size");
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    const std::uint64_t before = carved.total();
    const std::uint64_t cuts_before = cuts.total();
    const obs::Histogram::Snapshot hist_before = sizes.snapshot();
    (void)detect_sched_watermarks(a.graph, a.schedule, alice(), a.records, p);
    const obs::Histogram::Snapshot hist_after = sizes.snapshot();
    EXPECT_EQ(carved.total() - before, carves) << (p ? "pool" : "serial");
    EXPECT_EQ(cuts.total() - cuts_before, cut);
    EXPECT_EQ(hist_after.count - hist_before.count, carves - cut);
    EXPECT_EQ(hist_after.sum - hist_before.sum, size_sum);
  }
#else
  GTEST_SKIP() << "counting needs LWM_OBS=ON";
#endif
}

TEST(CarveTallyTest, EmbedWavesTallyEveryPlannedCandidate) {
#if LWM_OBS_ENABLED
  Graph g = dfglib::make_mega_design(dfglib::MegaConfig{.operations = 3000});
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& carved = reg.counter("wm/domains_carved");
  obs::Counter& candidates = reg.counter("wm/embed_plan_candidates");
  obs::Histogram& sizes = reg.histogram("wm/domain_size");
  const std::uint64_t carved_before = carved.total();
  const std::uint64_t candidates_before = candidates.total();
  const std::uint64_t sizes_before = sizes.snapshot().count;
  exec::ThreadPool pool(2);
  const auto marks =
      embed_local_watermarks_parallel(g, alice(), 8, SchedWmOptions{}, &pool);
  ASSERT_FALSE(marks.empty());
  const std::uint64_t planned = candidates.total() - candidates_before;
  EXPECT_GT(planned, 0u);
  EXPECT_EQ(carved.total() - carved_before, planned);
  EXPECT_EQ(sizes.snapshot().count - sizes_before, planned);
#else
  GTEST_SKIP() << "counting needs LWM_OBS=ON";
#endif
}

}  // namespace
}  // namespace lwm::wm
