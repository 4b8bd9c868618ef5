// Property tests for the flat locality carve against the reference
// hash-map carve of locality_oracle.h: `ordered` and `selected` must be
// identical at every executable root, at every tau, under two
// signatures — on mega-designs of every shape, on every dfglib kernel and
// on a marked graph carrying temporal and token edges (the carve's edge
// filter).  Also pins the per-batch carve statistics against the oracle.
#include <gtest/gtest.h>

#include <algorithm>
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
void expect_carves_match_oracle(const Graph& g, const std::string& label) {
  const crypto::Signature sigs[] = {alice(), eve()};
  std::vector<crypto::Bitstream> carves;
  for (const crypto::Signature& sig : sigs) {
    carves.push_back(sig.stream(DomainKey::kCarveTag));
  }
  for (const int tau : kTaus) {
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
        ASSERT_EQ(got.ordered, want.ordered) << where;
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

TEST(CarveTallyTest, DetectTotalsMatchOracleCarves) {
#if LWM_OBS_ENABLED
  // The scan carves (root, key group) exactly when some record of the
  // group ends in the root's operation and fits in the root's cone; the
  // oracle carve gives each carve's size.
  const Archive a = make_archive();
  std::uint64_t carves = 0;
  std::uint64_t size_sum = 0;
  for (const NodeId n : a.graph.nodes()) {
    if (!cdfg::is_executable(a.graph.node(n).kind)) continue;
    std::vector<DomainKey> keys;
    for (const SchedRecord& r : a.records) {
      if (!oracle::may_carve(a.graph, n, r)) continue;
      if (std::ranges::find(keys, r.domain) != keys.end()) continue;
      keys.push_back(r.domain);
      ++carves;
      size_sum += oracle::select_domain(a.graph, n, alice(), r.domain).selected.size();
    }
  }
  ASSERT_GT(carves, 0u);

  obs::Counter& carved = obs::Registry::instance().counter("wm/domains_carved");
  obs::Histogram& sizes = obs::Registry::instance().histogram("wm/domain_size");
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    const std::uint64_t before = carved.total();
    const obs::Histogram::Snapshot hist_before = sizes.snapshot();
    (void)detect_sched_watermarks(a.graph, a.schedule, alice(), a.records, p);
    const obs::Histogram::Snapshot hist_after = sizes.snapshot();
    EXPECT_EQ(carved.total() - before, carves) << (p ? "pool" : "serial");
    EXPECT_EQ(hist_after.count - hist_before.count, carves);
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
