// sched_pc_poisson parity and the sched_pc_auto size dispatch.
//
// The Poisson estimator is an approximation with an exact analytic
// relationship to the window model it replaces: per temporal edge with
// order probability p, the log-factor gap is
//     0 <= -ln p - (1 - p) <= (1 - p)^2 / (2 p),
// so over a whole mark set  window <= poisson <= window + B  where
// B = sum_i (1-p_i)^2 / (2 p_i) / ln 10.  That bound is asserted on
// every design of the experiment suite (dfglib kernels + the eight
// MediaBench apps).  Against exhaustive-psi sched_pc_exact — a different
// state space (subtree schedules, not independent windows) — the
// documented tolerance is two decades: |poisson - exact| <= 2.0 on every
// design where enumeration completes (observed max gap 1.4, JPEG.c).
#include "wm/pc.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "obs/obs.h"
#include "sched/modulo.h"
#include "wm/periodic.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

SchedWmOptions suite_options() {
  SchedWmOptions opts;
  opts.domain.tau = 6;
  opts.domain.keep_num = 1;
  opts.domain.keep_den = 1;
  opts.k = 2;
  opts.epsilon = 0.3;
  return opts;
}

std::vector<std::pair<std::string, Graph>> experiment_suite() {
  std::vector<std::pair<std::string, Graph>> suite;
  suite.emplace_back("iir4", dfglib::iir4_parallel());
  suite.emplace_back("fir16", dfglib::make_fir(16));
  suite.emplace_back("fft8", dfglib::make_fft(8));
  suite.emplace_back("biquad4", dfglib::make_biquad_cascade(4));
  for (const dfglib::MediabenchApp& app : dfglib::mediabench_table()) {
    suite.emplace_back(app.name, dfglib::make_mediabench_app(app));
  }
  return suite;
}

/// The second-order remainder bound on poisson - window (log10 decades).
double analytic_gap_bound(const Graph& g,
                          std::span<const SchedWatermark> marks) {
  const cdfg::TimingInfo timing =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  double bound = 0.0;
  for (const SchedWatermark& m : marks) {
    for (const TemporalConstraint& c : m.constraints) {
      const double p = edge_order_probability(timing, g, c.src, c.dst);
      if (p > 0.0) bound += (1.0 - p) * (1.0 - p) / (2.0 * p);
    }
  }
  return bound / std::log(10.0);
}

TEST(SchedPcPoissonTest, WithinAnalyticBoundOfWindowModelOnEveryDesign) {
  int covered = 0;
  for (auto& [name, g] : experiment_suite()) {
    const auto marks = embed_local_watermarks(g, alice(), 2, suite_options());
    if (marks.empty()) continue;  // fir16: a zero-laxity tap chain
    ++covered;
    g.strip_temporal_edges();
    const PcEstimate window = sched_pc_window_model(g, marks);
    const PcEstimate poisson = sched_pc_poisson(g, marks);
    EXPECT_FALSE(poisson.exact);
    EXPECT_LT(poisson.log10_pc, 0.0) << name;
    // window <= poisson <= window + B, B the second-order remainder.
    EXPECT_LE(window.log10_pc, poisson.log10_pc + 1e-12) << name;
    EXPECT_LE(poisson.log10_pc,
              window.log10_pc + analytic_gap_bound(g, marks) + 1e-12)
        << name;
  }
  EXPECT_GE(covered, 10) << "suite designs must actually carry marks";
}

TEST(SchedPcPoissonTest, WithinTwoDecadesOfExactOnEveryDesign) {
  // A tight saturation budget keeps the exhaustive counts fast; marks
  // whose psi-space is larger simply fall out of the comparison (the
  // whole reason sched_pc_auto exists).
  sched::EnumerationOptions eopts;
  eopts.limit = 100'000;
  int compared = 0;
  for (auto& [name, g] : experiment_suite()) {
    const auto marks = embed_local_watermarks(g, alice(), 2, suite_options());
    if (marks.empty()) continue;
    g.strip_temporal_edges();
    for (const SchedWatermark& m : marks) {
      const PcEstimate exact = sched_pc_exact(g, m, eopts);
      if (!exact.exact) continue;  // enumeration saturated
      ++compared;
      const SchedWatermark one[] = {m};
      const PcEstimate poisson = sched_pc_poisson(g, one);
      EXPECT_NEAR(poisson.log10_pc, exact.log10_pc, 2.0) << name;
    }
  }
  EXPECT_GE(compared, 5) << "the exact path must cover a real sample";
}

TEST(SchedPcPoissonTest, AdditiveOverMarksAndDegenerateOnImpossibleEdge) {
  Graph g = dfglib::make_dsp_design("poi_add", 12, 200, 31);
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(g, alice(), 3, opts);
  ASSERT_GE(marks.size(), 2u);
  g.strip_temporal_edges();
  const double all = sched_pc_poisson(g, marks).log10_pc;
  double sum = 0.0;
  for (const SchedWatermark& m : marks) {
    const SchedWatermark one[] = {m};
    sum += sched_pc_poisson(g, one).log10_pc;
  }
  EXPECT_NEAR(all, sum, 1e-9) << "lambda sums over edges";

  // An order-impossible edge (dst strictly precedes src) has p = 0: one
  // full expected violation and a degenerate estimate.
  SchedWatermark bad = marks[0];
  bad.constraints.clear();
  const cdfg::TimingInfo t = cdfg::compute_timing(g);
  cdfg::NodeId lo, hi;
  bool found = false;
  for (const cdfg::NodeId n : g.node_ids()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    for (const cdfg::NodeId m2 : g.node_ids()) {
      if (!cdfg::is_executable(g.node(m2).kind)) continue;
      if (t.alap[m2.value] + g.node(m2).delay <= t.asap[n.value]) {
        lo = m2;
        hi = n;
        found = true;
        break;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found);
  bad.constraints.push_back({hi, lo, 0, 1});  // hi must precede lo: impossible
  const SchedWatermark badset[] = {bad};
  const PcEstimate est = sched_pc_poisson(g, badset);
  EXPECT_TRUE(est.degenerate);
  EXPECT_LE(est.log10_pc, -1.0 / std::log(10.0) + 1e-12);
}

TEST(SchedPcAutoTest, DispatchesBySizeAndLogsTheBranch) {
  // Small design: under the default 2048-node threshold -> exact path.
  Graph small = dfglib::iir4_parallel();
  const auto small_marks =
      embed_local_watermarks(small, alice(), 1, suite_options());
  ASSERT_FALSE(small_marks.empty());
  small.strip_temporal_edges();

  // Mega design: over the threshold -> Poisson path.
  dfglib::MegaConfig cfg;
  cfg.name = "auto_mega";
  cfg.operations = 4000;
  cfg.width = 32;
  cfg.seed = 17;
  Graph mega = dfglib::make_mega_design(cfg);
  SchedWmOptions mopts;
  mopts.domain.tau = 4;
  mopts.k = 3;
  const auto mega_marks = embed_local_watermarks(mega, alice(), 1, mopts);
  ASSERT_FALSE(mega_marks.empty());
  mega.strip_temporal_edges();
  ASSERT_GT(mega.node_count(), SchedPcAutoOptions{}.poisson_node_threshold);

#if LWM_OBS_ENABLED
  obs::Registry::instance().reset();
#endif
  const PcEstimate small_est = sched_pc_auto(small, small_marks[0]);
  EXPECT_TRUE(small_est.exact);
  EXPECT_DOUBLE_EQ(small_est.log10_pc,
                   sched_pc_exact(small, small_marks[0]).log10_pc);

  const PcEstimate mega_est = sched_pc_auto(mega, mega_marks[0]);
  EXPECT_FALSE(mega_est.exact);
  const SchedWatermark one[] = {mega_marks[0]};
  EXPECT_DOUBLE_EQ(mega_est.log10_pc, sched_pc_poisson(mega, one).log10_pc);

  // Forcing the threshold below the small design proves the fallback
  // engages on size alone, not on some property of mega-designs.
  SchedPcAutoOptions tiny;
  tiny.poisson_node_threshold = 4;
  EXPECT_FALSE(sched_pc_auto(small, small_marks[0], tiny).exact);

#if LWM_OBS_ENABLED
  EXPECT_EQ(obs::Registry::instance().counter("wm/pc_auto_exact").total(), 1u);
  EXPECT_EQ(obs::Registry::instance().counter("wm/pc_auto_poisson").total(),
            2u);
#endif
}

// ---- Resident windows ------------------------------------------------------
//
// Every estimator that takes the caller's windows must return the same
// bits as when it times the graph itself.  The windows come from the
// *pristine* design while the estimators run on the marked copy, whose
// temporal edges the counting filters ignore — the exact situation of a
// resident serve::StoredDesign.

void expect_same_bits(const PcEstimate& a, const PcEstimate& b,
                      const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.log10_pc),
            std::bit_cast<std::uint64_t>(b.log10_pc))
      << what << ": " << a.log10_pc << " vs " << b.log10_pc;
  EXPECT_EQ(a.exact, b.exact) << what;
  EXPECT_EQ(a.degenerate, b.degenerate) << what;
}

/// The per-mark loop the span sched_pc_auto replaces: each mark's
/// estimator run from scratch, log10 summed from +0.0 in mark order.
template <typename PerMark>
PcEstimate per_mark_reference(std::span<const SchedWatermark> marks,
                              PerMark&& one) {
  PcEstimate total;
  total.exact = !marks.empty();
  for (const SchedWatermark& m : marks) {
    const PcEstimate e = one(m);
    total.log10_pc += e.log10_pc;
    total.exact = total.exact && e.exact;
    total.degenerate = total.degenerate || e.degenerate;
  }
  return total;
}

struct MarkedDesign {
  Graph pristine;
  Graph marked;  ///< pristine + the marks' temporal edges
  std::vector<SchedWatermark> marks;
};

MarkedDesign mark(Graph g, int count, const SchedWmOptions& opts) {
  MarkedDesign d{g, std::move(g), {}};
  d.marks = embed_local_watermarks(d.marked, alice(), count, opts);
  return d;
}

TEST(ResidentWindowsTest, FlatEstimatorsAreBitIdenticalAboveThreshold) {
  dfglib::MegaConfig cfg;
  cfg.name = "resident_mega";
  cfg.operations = 4000;
  cfg.width = 32;
  cfg.seed = 23;
  SchedWmOptions opts;
  opts.domain.tau = 4;
  opts.k = 3;
  // Enough marks that summing them in another order moves the last bit.
  const MarkedDesign d = mark(dfglib::make_mega_design(cfg), 24, opts);
  ASSERT_GE(d.marks.size(), 16u);
  ASSERT_GT(d.marked.node_count(), SchedPcAutoOptions{}.poisson_node_threshold);
  const cdfg::TimingInfo spec = cdfg::compute_timing(
      d.pristine, -1, cdfg::EdgeFilter::specification());

  expect_same_bits(sched_pc_window_model(d.marked, d.marks, &spec),
                   sched_pc_window_model(d.marked, d.marks), "window");
  expect_same_bits(sched_pc_poisson(d.marked, d.marks, &spec),
                   sched_pc_poisson(d.marked, d.marks), "poisson");

  const PcEstimate reference = per_mark_reference(
      d.marks, [&](const SchedWatermark& m) {
        const SchedWatermark one[] = {m};
        return sched_pc_poisson(d.marked, one);
      });
  EXPECT_FALSE(reference.exact);
  expect_same_bits(sched_pc_auto(d.marked, d.marks, {}, &spec), reference,
                   "auto, resident windows");
  expect_same_bits(sched_pc_auto(d.marked, d.marks), reference,
                   "auto, own windows");
}

TEST(ResidentWindowsTest, FlatEstimatorsAreBitIdenticalBelowThreshold) {
  const MarkedDesign d = mark(dfglib::iir4_parallel(), 2, suite_options());
  ASSERT_GE(d.marks.size(), 2u);
  ASSERT_LE(d.marked.node_count(), SchedPcAutoOptions{}.poisson_node_threshold);
  const cdfg::TimingInfo spec = cdfg::compute_timing(
      d.pristine, -1, cdfg::EdgeFilter::specification());

  // Exact enumeration, and the saturation fallback (a limit of 1
  // saturates every count) into the window model.
  sched::EnumerationOptions saturate;
  saturate.limit = 1;
  for (const SchedWatermark& m : d.marks) {
    const PcEstimate exact = sched_pc_exact(d.marked, m, {}, &spec);
    EXPECT_TRUE(exact.exact);
    expect_same_bits(exact, sched_pc_exact(d.marked, m), "exact");
    const PcEstimate fallback = sched_pc_exact(d.marked, m, saturate, &spec);
    EXPECT_FALSE(fallback.exact) << "the limit must force the fallback";
    expect_same_bits(fallback, sched_pc_exact(d.marked, m, saturate),
                     "exact fallback");
  }

  SchedPcAutoOptions auto_opts;
  const PcEstimate reference = per_mark_reference(
      d.marks,
      [&](const SchedWatermark& m) { return sched_pc_exact(d.marked, m); });
  EXPECT_TRUE(reference.exact);
  expect_same_bits(sched_pc_auto(d.marked, d.marks, auto_opts, &spec),
                   reference, "auto exact, resident windows");
  expect_same_bits(sched_pc_auto(d.marked, d.marks, auto_opts), reference,
                   "auto exact, own windows");

  auto_opts.enumeration = saturate;
  const PcEstimate fallback_reference = per_mark_reference(
      d.marks, [&](const SchedWatermark& m) {
        return sched_pc_exact(d.marked, m, saturate);
      });
  EXPECT_FALSE(fallback_reference.exact);
  expect_same_bits(sched_pc_auto(d.marked, d.marks, auto_opts, &spec),
                   fallback_reference, "auto fallback, resident windows");
}

TEST(ResidentWindowsTest, PeriodicEstimatorsAreBitIdentical) {
  MarkedDesign d = mark(dfglib::iir4_parallel(), 2, suite_options());
  ASSERT_FALSE(d.marks.empty());
  (void)dfglib::add_feedback(d.marked, 2);
  d.pristine = d.marked;
  d.pristine.strip_temporal_edges();
  ASSERT_TRUE(d.pristine.has_token_edges());
  const int ii = sched::recurrence_min_ii(d.marked);
  ASSERT_GT(ii, 0);
  const PeriodicTiming windows = compute_periodic_timing(
      d.pristine, ii, -1, periodic_counting_filter());

  expect_same_bits(sched_pc_periodic_poisson(d.marked, d.marks, ii, &windows),
                   sched_pc_periodic_poisson(d.marked, d.marks, ii),
                   "periodic poisson");
  sched::EnumerationOptions saturate;
  saturate.limit = 1;
  for (const SchedWatermark& m : d.marks) {
    const PcEstimate exact = sched_pc_periodic(d.marked, m, ii, {}, &windows);
    EXPECT_TRUE(exact.exact);
    expect_same_bits(exact, sched_pc_periodic(d.marked, m, ii),
                     "periodic exact");
    const PcEstimate fallback =
        sched_pc_periodic(d.marked, m, ii, saturate, &windows);
    EXPECT_FALSE(fallback.exact);
    expect_same_bits(fallback, sched_pc_periodic(d.marked, m, ii, saturate),
                     "periodic fallback");
  }

  SchedPcAutoOptions auto_opts;
  auto_opts.ii = ii;
  expect_same_bits(sched_pc_auto(d.marked, d.marks, auto_opts),
                   per_mark_reference(d.marks,
                                      [&](const SchedWatermark& m) {
                                        return sched_pc_periodic(d.marked, m, ii);
                                      }),
                   "auto periodic exact");
  auto_opts.poisson_node_threshold = 4;
  expect_same_bits(sched_pc_auto(d.marked, d.marks, auto_opts),
                   per_mark_reference(d.marks,
                                      [&](const SchedWatermark& m) {
                                        const SchedWatermark one[] = {m};
                                        return sched_pc_periodic_poisson(
                                            d.marked, one, ii);
                                      }),
                   "auto periodic poisson");
}

TEST(ResidentWindowsTest, SpanAutoTimesTheGraphAtMostOnce) {
#if LWM_OBS_ENABLED
  const MarkedDesign d = mark(dfglib::iir4_parallel(), 2, suite_options());
  ASSERT_GE(d.marks.size(), 2u);
  const cdfg::TimingInfo spec = cdfg::compute_timing(
      d.pristine, -1, cdfg::EdgeFilter::specification());
  obs::Counter& passes = obs::Registry::instance().counter("cdfg/timing_passes");
  SchedPcAutoOptions tiny;
  tiny.poisson_node_threshold = 4;
  for (const SchedPcAutoOptions& o : {SchedPcAutoOptions{}, tiny}) {
    const std::uint64_t before = passes.total();
    (void)sched_pc_auto(d.marked, d.marks, o, &spec);
    EXPECT_EQ(passes.total() - before, 0u) << "resident windows: no pass";
    (void)sched_pc_auto(d.marked, d.marks, o);
    EXPECT_EQ(passes.total() - before, 1u) << "own windows: one pass";
  }
  const std::uint64_t before = passes.total();
  (void)sched_pc_auto(d.marked, std::span<const SchedWatermark>{}, tiny);
  EXPECT_EQ(passes.total() - before, 0u) << "no marks, no windows";
#else
  GTEST_SKIP() << "pass counting needs LWM_OBS=ON";
#endif
}

}  // namespace
}  // namespace lwm::wm
