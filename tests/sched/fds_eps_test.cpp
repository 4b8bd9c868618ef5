// The approximate (eps_dg > 0) force-directed mode: refill counts must
// fall monotonically as the drift threshold grows, while the schedule
// stays legal at the same latency bound, and the default threshold must
// keep schedule quality at parity with the exact engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/op.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "fds_reference.h"
#include "sched/force_directed.h"
#include "sched/schedule.h"

namespace lwm::sched {
namespace {

int slack_latency(const cdfg::Graph& g) {
  const int cp = cdfg::critical_path_length(g);
  return cp + std::max(1, cp / 10);
}

// Quadratic distribution-graph cost of a finished schedule — the
// smoothed concurrency measure force minimization approximates.  The
// parity bound for the approximate mode is phrased against this, not
// the brittle per-class peak.
double dg_cost(const cdfg::Graph& g, const Schedule& s, int latency) {
  std::vector<std::vector<double>> dg(
      cdfg::kNumUnitClasses, std::vector<double>(latency + 4, 0.0));
  for (const cdfg::NodeId n : g.nodes()) {
    const cdfg::Node& op = g.node(n);
    if (!cdfg::is_executable(op.kind)) continue;
    const auto c = static_cast<std::size_t>(cdfg::unit_class(op.kind));
    for (int i = 0; i < op.delay; ++i) {
      dg[c][static_cast<std::size_t>(s.start_of(n) + i)] += 1.0;
    }
  }
  double cost = 0.0;
  for (const auto& row : dg) {
    for (const double v : row) cost += v * v;
  }
  return cost;
}

TEST(FdsEpsTest, SweepIsMonotoneWithUnchangedLatency) {
  const cdfg::Graph g = dfglib::make_dsp_design("eps_sweep", 12, 240, 7);
  FdsOptions opts;
  opts.latency = slack_latency(g);

  std::uint64_t prev_refills = 0;
  int exact_length = -1;
  bool first = true;
  for (const double eps : {0.0, 0.1, 0.25, 0.5, 1.0, 2.0}) {
    opts.eps_dg = eps;
    FdsStats stats;
    opts.stats = &stats;
    const Schedule s = force_directed_schedule(g, opts);
    EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                                ResourceSet::unlimited(), opts.latency)
                    .ok)
        << "eps_dg=" << eps;
    EXPECT_EQ(stats.iterations, g.operation_count());
    EXPECT_EQ(stats.refills + stats.cache_hits,
              stats.iterations * (stats.iterations + 1) / 2);
    if (first) {
      exact_length = s.length(g);
      EXPECT_EQ(stats.suppressed, 0u) << "exact mode suppressed a refill";
    } else {
      // Raising the threshold may only suppress more refills.
      EXPECT_LE(stats.refills, prev_refills) << "eps_dg=" << eps;
      EXPECT_EQ(s.length(g), exact_length) << "eps_dg=" << eps;
    }
    prev_refills = stats.refills;
    first = false;
  }
}

TEST(FdsEpsTest, ZeroEpsMatchesReference) {
  const cdfg::Graph g = dfglib::make_layered_dag("eps_exact", 180, 9, {}, 31);
  FdsOptions opts;
  opts.latency = slack_latency(g);
  opts.eps_dg = 0.0;
  const Schedule ref = force_directed_schedule_reference(g, opts);
  const Schedule inc = force_directed_schedule(g, opts);
  for (const cdfg::NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    EXPECT_EQ(ref.start_of(n), inc.start_of(n)) << g.node(n).name;
  }
}

TEST(FdsEpsTest, DefaultEpsKeepsQualityParity) {
  // The documented contract of kDefaultEpsDg: fewer refills, identical
  // final latency, quadratic DG cost within ~1% — on representative
  // dfglib kernels.  (bench_micro checks the MediaBench apps.)
  std::vector<cdfg::Graph> designs;
  designs.push_back(dfglib::make_fir(16));
  designs.push_back(dfglib::make_fft(16));
  designs.push_back(dfglib::make_biquad_cascade(6));
  designs.push_back(dfglib::iir4_parallel());
  designs.push_back(dfglib::make_mediabench_app(dfglib::mediabench_table().front()));
  for (const cdfg::Graph& g : designs) {
    SCOPED_TRACE(g.name());
    FdsOptions opts;
    opts.latency = slack_latency(g);
    FdsStats exact_stats, eps_stats;
    opts.eps_dg = 0.0;
    opts.stats = &exact_stats;
    const Schedule exact = force_directed_schedule(g, opts);
    opts.eps_dg = kDefaultEpsDg;
    opts.stats = &eps_stats;
    const Schedule approx = force_directed_schedule(g, opts);

    EXPECT_LE(eps_stats.refills, exact_stats.refills);
    EXPECT_GT(eps_stats.suppressed, 0u);
    EXPECT_EQ(approx.length(g), exact.length(g));
    EXPECT_TRUE(verify_schedule(g, approx, cdfg::EdgeFilter::all(),
                                ResourceSet::unlimited(), opts.latency)
                    .ok);
    const double ce = dg_cost(g, exact, opts.latency);
    const double ca = dg_cost(g, approx, opts.latency);
    EXPECT_LE(std::abs(ca - ce) / ce, 0.02)
        << "cost " << ce << " -> " << ca;
  }
}

TEST(FdsEpsTest, SimdAndScalarAgreeAtAnyEps) {
  // allow_simd only swaps bit-identical kernels, so the schedule must
  // not depend on it — in exact and approximate mode alike.
  const cdfg::Graph g = dfglib::make_dsp_design("eps_simd", 10, 160, 3);
  for (const double eps : {0.0, kDefaultEpsDg}) {
    FdsOptions opts;
    opts.latency = slack_latency(g);
    opts.eps_dg = eps;
    opts.allow_simd = true;
    const Schedule simd = force_directed_schedule(g, opts);
    opts.allow_simd = false;
    const Schedule scalar = force_directed_schedule(g, opts);
    for (const cdfg::NodeId n : g.nodes()) {
      if (!cdfg::is_executable(g.node(n).kind)) continue;
      EXPECT_EQ(simd.start_of(n), scalar.start_of(n))
          << g.node(n).name << " eps_dg=" << eps;
    }
  }
}

}  // namespace
}  // namespace lwm::sched
