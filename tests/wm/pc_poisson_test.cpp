// The Poisson branch of sched_pc_auto, and its size dispatch.
//
// The Poisson model is an approximation with an exact analytic
// relationship to the window model: per temporal edge with order
// probability p, the log-factor gap is
//     0 <= -ln p - (1 - p) <= (1 - p)^2 / (2 p),
// so over a whole mark set  window <= poisson <= window + B  where
// B = sum_i (1-p_i)^2 / (2 p_i) / ln 10.  That bound is asserted on
// every design of the experiment suite (dfglib kernels + the eight
// MediaBench apps).  Against the exact path — a different state space
// (subtree schedules, not independent windows) — the documented
// tolerance is two decades: |poisson - exact| <= 2.0 on every design
// where enumeration completes (observed max gap 1.4, JPEG.c).
//
// The suite designs sit below the front door's node threshold, so the
// Poisson figures come from copies padded past it (poisson_padding.h),
// whose windows are the originals'.
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
#include "poisson_padding.h"
#include "sched/enumerate.h"
#include "sched/modulo.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

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

/// Window-model order probability by the per-step summation over src's
/// window: the count of (ta, tb) pairs with tb >= ta + delay(src).
double order_probability(const cdfg::TimingInfo& t, const Graph& g,
                         NodeId src, NodeId dst) {
  long long favorable = 0;
  for (int ta = t.asap[src.value]; ta <= t.alap[src.value]; ++ta) {
    for (int tb = t.asap[dst.value]; tb <= t.alap[dst.value]; ++tb) {
      if (tb >= ta + g.node(src).delay) ++favorable;
    }
  }
  const long long total =
      static_cast<long long>(t.alap[src.value] - t.asap[src.value] + 1) *
      (t.alap[dst.value] - t.asap[dst.value] + 1);
  return static_cast<double>(favorable) / static_cast<double>(total);
}

cdfg::TimingInfo spec_timing(const Graph& g) {
  return cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
}

/// The Poisson model of one mark written out: lambda = sum (1 - p_i), a
/// full violation per impossible edge, log10 P_c = -lambda / ln 10.
PcEstimate poisson_reference(const Graph& g, const SchedWatermark& m) {
  const cdfg::TimingInfo t = spec_timing(g);
  PcEstimate est;
  double lambda = 0.0;
  for (const TemporalConstraint& c : m.constraints) {
    const double p = order_probability(t, g, c.src, c.dst);
    est.degenerate = est.degenerate || p <= 0.0;
    lambda += p <= 0.0 ? 1.0 : 1.0 - p;
  }
  est.log10_pc = -lambda / std::log(10.0);
  return est;
}

/// The second-order remainder bound on poisson - window (log10 decades).
double analytic_gap_bound(const Graph& g,
                          std::span<const SchedWatermark> marks) {
  const cdfg::TimingInfo timing = spec_timing(g);
  double bound = 0.0;
  for (const SchedWatermark& m : marks) {
    for (const TemporalConstraint& c : m.constraints) {
      const double p = order_probability(timing, g, c.src, c.dst);
      if (p > 0.0) bound += (1.0 - p) * (1.0 - p) / (2.0 * p);
    }
  }
  return bound / std::log(10.0);
}

/// log10 psi_w / psi_n of one mark by direct enumeration, unbounded.
double enumerated_log10_ratio(const Graph& g, const SchedWatermark& m) {
  std::vector<NodeId> subset;
  for (const NodeId n : m.subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  std::vector<sched::ExtraPrecedence> extra;
  for (const TemporalConstraint& c : m.constraints) {
    extra.push_back({c.src, c.dst});
  }
  const cdfg::TimingInfo timing = spec_timing(g);
  constexpr std::uint64_t kUnbounded = 1'000'000'000;
  const auto denom = sched::count_schedules(g, timing, subset, {}, kUnbounded);
  const auto numer = sched::count_schedules(g, timing, subset, extra, kUnbounded);
  return std::log10(static_cast<double>(numer.count)) -
         std::log10(static_cast<double>(denom.count));
}

TEST(SchedPcPoissonTest, WithinAnalyticBoundOfWindowModelOnEveryDesign) {
  int covered = 0;
  for (auto& [name, g] : experiment_suite()) {
    const auto marks = embed_local_watermarks(g, alice(), 2, suite_options());
    if (marks.empty()) continue;  // fir16: a zero-laxity tap chain
    ++covered;
    g.strip_temporal_edges();
    const PcEstimate window = sched_pc_window_model(g, marks);
    const PcEstimate poisson = sched_pc_auto(past_exact_threshold(g), marks);
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
  // Marks whose psi-space outgrows the exact budget fall out of the
  // comparison (the front door takes the Poisson model for them).
  int compared = 0;
  for (auto& [name, g] : experiment_suite()) {
    const auto marks = embed_local_watermarks(g, alice(), 2, suite_options());
    if (marks.empty()) continue;
    g.strip_temporal_edges();
    const Graph padded = past_exact_threshold(g);
    for (const SchedWatermark& m : marks) {
      const PcEstimate exact = sched_pc_auto(g, m);
      if (!exact.exact) continue;  // enumeration saturated
      ++compared;
      const PcEstimate poisson = sched_pc_auto(padded, m);
      EXPECT_FALSE(poisson.exact);
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
  const Graph padded = past_exact_threshold(g);
  const double all = sched_pc_auto(padded, marks).log10_pc;
  double sum = 0.0;
  for (const SchedWatermark& m : marks) sum += sched_pc_auto(padded, m).log10_pc;
  EXPECT_NEAR(all, sum, 1e-9) << "lambda sums over edges";

  // An order-impossible edge (dst strictly precedes src) has p = 0: one
  // full expected violation and a degenerate estimate.
  SchedWatermark bad = marks[0];
  bad.constraints.clear();
  const cdfg::TimingInfo t = cdfg::compute_timing(g);
  NodeId lo, hi;
  bool found = false;
  for (const NodeId n : g.node_ids()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    for (const NodeId m2 : g.node_ids()) {
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
  const PcEstimate est = sched_pc_auto(padded, bad);
  EXPECT_TRUE(est.degenerate);
  EXPECT_LE(est.log10_pc, -1.0 / std::log(10.0) + 1e-12);
}

TEST(SchedPcAutoTest, DispatchesBySizeAndLogsTheBranch) {
  // Small design: under the 2048-node threshold -> exact path.
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
  ASSERT_GT(mega.node_count(), kDocumentedPoissonThreshold);

#if LWM_OBS_ENABLED
  obs::Registry::instance().reset();
#endif
  const PcEstimate small_est = sched_pc_auto(small, small_marks[0]);
  EXPECT_TRUE(small_est.exact);
  EXPECT_DOUBLE_EQ(small_est.log10_pc,
                   enumerated_log10_ratio(small, small_marks[0]));

  const PcEstimate mega_est = sched_pc_auto(mega, mega_marks[0]);
  EXPECT_FALSE(mega_est.exact);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(mega_est.log10_pc),
            std::bit_cast<std::uint64_t>(
                poisson_reference(mega, mega_marks[0]).log10_pc));

  // Padding the small design past the threshold proves the Poisson path
  // engages on size alone, not on some property of mega-designs.
  EXPECT_FALSE(sched_pc_auto(past_exact_threshold(small), small_marks[0]).exact);

#if LWM_OBS_ENABLED
  EXPECT_EQ(obs::Registry::instance().counter("wm/pc_auto_exact").total(), 1u);
  EXPECT_EQ(obs::Registry::instance().counter("wm/pc_auto_poisson").total(),
            2u);
#endif
}

TEST(SchedPcAutoTest, ImpliedConstraintsGiveZeroLog10Pc) {
  // in -> a -> b -> c -> out beside a five-op chain that sets the
  // critical path to 5, so a, b and c have windows [0,2], [1,3], [2,4].
  // The constraints a -> b and a -> c are implied by specification
  // paths: every schedule satisfies them, psi_w == psi_n, and the exact
  // path reports log10 P_c = 0 exactly.  The window model, which draws
  // the two windows independently, still claims a proof for them.
  Graph g;
  g.set_name("implied");
  const NodeId in = g.add_node(cdfg::OpKind::kInput, "in");
  const NodeId out = g.add_node(cdfg::OpKind::kOutput, "out");
  const NodeId a = g.add_node(cdfg::OpKind::kAdd, "a");
  const NodeId b = g.add_node(cdfg::OpKind::kAdd, "b");
  const NodeId c = g.add_node(cdfg::OpKind::kAdd, "c");
  g.add_edge(in, a);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, out);
  NodeId prev = in;
  for (int i = 0; i < 5; ++i) {
    const NodeId x = g.add_node(cdfg::OpKind::kAdd, "x" + std::to_string(i));
    g.add_edge(prev, x);
    prev = x;
  }
  g.add_edge(prev, out);

  SchedWatermark wm;
  wm.root = c;
  wm.subtree = {a, b, c, prev};
  wm.constraints.push_back({a, b, 0, 1});
  wm.constraints.push_back({a, c, 0, 2});
  const PcEstimate est = sched_pc_auto(g, wm);
  EXPECT_TRUE(est.exact);
  EXPECT_FALSE(est.degenerate);
  EXPECT_EQ(est.log10_pc, 0.0);
  const SchedWatermark one[] = {wm};
  EXPECT_LT(sched_pc_window_model(g, one).log10_pc, 0.0);

  // c -> x4 (x4 pinned at step 4) is not implied: it drops every
  // schedule with c at step 4, 4 of the 10 remain.
  wm.constraints.push_back({c, prev, 2, 3});
  const PcEstimate proof = sched_pc_auto(g, wm);
  EXPECT_TRUE(proof.exact);
  EXPECT_DOUBLE_EQ(proof.log10_pc, std::log10(4.0 / 10.0));
}

// ---- Resident windows ------------------------------------------------------
//
// The front door must return the same bits with the caller's windows as
// when it times the graph itself.  The windows come from the *pristine*
// design while the estimate runs on the marked copy, whose temporal
// edges the counting filters ignore — the exact situation of a resident
// serve::StoredDesign.

void expect_same_bits(const PcEstimate& a, const PcEstimate& b,
                      const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.log10_pc),
            std::bit_cast<std::uint64_t>(b.log10_pc))
      << what << ": " << a.log10_pc << " vs " << b.log10_pc;
  EXPECT_EQ(a.exact, b.exact) << what;
  EXPECT_EQ(a.degenerate, b.degenerate) << what;
}

/// Per-mark estimates combined the way the span sched_pc_auto documents:
/// log10 summed from +0.0 in mark order.
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

/// The 1,957-node layered-deep mega design whose second mark's unbounded
/// exact count ran for minutes: at tau 8 and k 3 most marks' schedule
/// spaces outgrow the exact budget.
MarkedDesign saturating_design(int count) {
  dfglib::MegaConfig cfg;
  cfg.name = "budget_mega";
  cfg.operations = 1500;
  cfg.width = 64;
  cfg.seed = 7;
  SchedWmOptions opts;
  opts.domain.tau = 8;
  opts.k = 3;
  return mark(dfglib::make_mega_design(cfg), count, opts);
}

/// Every mark of `marks` the exact path leaves (its count reached the
/// budget) carries the padded copy's Poisson estimate, bit for bit; at
/// least one must.
void expect_fallback_is_poisson(const Graph& g,
                                std::span<const SchedWatermark> marks,
                                int ii) {
  const Graph padded = past_exact_threshold(g);
  int fell_back = 0;
  for (const SchedWatermark& m : marks) {
    const PcEstimate e = sched_pc_auto(g, m, ii);
    if (e.exact) continue;
    ++fell_back;
    expect_same_bits(e, sched_pc_auto(padded, m, ii), "fallback == Poisson");
  }
  EXPECT_GT(fell_back, 0) << "the budget must force a fallback";
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
  ASSERT_GT(d.marked.node_count(), kDocumentedPoissonThreshold);
  const cdfg::TimingInfo spec = spec_timing(d.pristine);

  expect_same_bits(sched_pc_window_model(d.marked, d.marks, &spec),
                   sched_pc_window_model(d.marked, d.marks), "window");

  const PcEstimate reference = per_mark_reference(
      d.marks,
      [&](const SchedWatermark& m) { return poisson_reference(d.marked, m); });
  EXPECT_FALSE(reference.exact);
  expect_same_bits(sched_pc_auto(d.marked, d.marks, 0, &spec), reference,
                   "auto, resident windows");
  expect_same_bits(sched_pc_auto(d.marked, d.marks), reference,
                   "auto, own windows");
}

TEST(ResidentWindowsTest, FlatEstimatorsAreBitIdenticalBelowThreshold) {
  const MarkedDesign d = mark(dfglib::iir4_parallel(), 2, suite_options());
  ASSERT_GE(d.marks.size(), 2u);
  ASSERT_LE(d.marked.node_count(), kDocumentedPoissonThreshold);
  const cdfg::TimingInfo spec = spec_timing(d.pristine);

  const PcEstimate reference =
      per_mark_reference(d.marks, [&](const SchedWatermark& m) {
        return sched_pc_auto(d.marked, m);
      });
  EXPECT_TRUE(reference.exact);
  expect_same_bits(sched_pc_auto(d.marked, d.marks, 0, &spec), reference,
                   "auto exact, resident windows");
  expect_same_bits(sched_pc_auto(d.marked, d.marks), reference,
                   "auto exact, own windows");

  // A mark whose count reaches the budget takes the Poisson model on the
  // same windows: the padded copy's estimate.
  const MarkedDesign big = saturating_design(4);
  ASSERT_EQ(big.marks.size(), 4u);
  ASSERT_LE(big.marked.node_count(), kDocumentedPoissonThreshold);
  const cdfg::TimingInfo big_spec = spec_timing(big.pristine);
  const PcEstimate batch = sched_pc_auto(big.marked, big.marks, 0, &big_spec);
  EXPECT_FALSE(batch.exact) << "the budget must force a fallback";
  expect_same_bits(batch, sched_pc_auto(big.marked, big.marks),
                   "auto with fallbacks, own windows");
  expect_fallback_is_poisson(big.marked, big.marks, 0);
}

TEST(ResidentWindowsTest, PeriodicEstimatorsAreBitIdentical) {
  MarkedDesign d = mark(dfglib::iir4_parallel(), 2, suite_options());
  ASSERT_FALSE(d.marks.empty());
  (void)dfglib::add_feedback(d.marked, 2);
  ASSERT_TRUE(d.marked.has_token_edges());
  const int ii = sched::recurrence_min_ii(d.marked);
  ASSERT_GT(ii, 0);

  // The span call builds its periodic windows once for every mark; the
  // per-mark calls build them per mark.  Both paths, same bits.
  const PcEstimate exact = sched_pc_auto(d.marked, d.marks, ii);
  EXPECT_TRUE(exact.exact);
  expect_same_bits(exact,
                   per_mark_reference(d.marks,
                                      [&](const SchedWatermark& m) {
                                        return sched_pc_auto(d.marked, m, ii);
                                      }),
                   "auto periodic exact");
  const Graph padded = past_exact_threshold(d.marked);
  const PcEstimate poisson = sched_pc_auto(padded, d.marks, ii);
  EXPECT_FALSE(poisson.exact);
  expect_same_bits(poisson,
                   per_mark_reference(d.marks,
                                      [&](const SchedWatermark& m) {
                                        return sched_pc_auto(padded, m, ii);
                                      }),
                   "auto periodic poisson");

  // A periodic mark whose count reaches the budget takes the periodic
  // Poisson model on the same windows.
  MarkedDesign big = saturating_design(2);
  ASSERT_EQ(big.marks.size(), 2u);
  (void)dfglib::add_feedback(big.marked, 2);
  expect_fallback_is_poisson(big.marked, big.marks,
                             sched::recurrence_min_ii(big.marked));
}

TEST(ResidentWindowsTest, SpanAutoTimesTheGraphAtMostOnce) {
#if LWM_OBS_ENABLED
  const MarkedDesign d = mark(dfglib::iir4_parallel(), 2, suite_options());
  ASSERT_GE(d.marks.size(), 2u);
  obs::Counter& passes = obs::Registry::instance().counter("cdfg/timing_passes");
  // The exact path on the design itself, the Poisson path on a padded
  // copy.
  for (const Graph& g : {d.marked, past_exact_threshold(d.marked)}) {
    const cdfg::TimingInfo spec = spec_timing(g);
    const std::uint64_t before = passes.total();
    (void)sched_pc_auto(g, d.marks, 0, &spec);
    EXPECT_EQ(passes.total() - before, 0u) << "resident windows: no pass";
    (void)sched_pc_auto(g, d.marks);
    EXPECT_EQ(passes.total() - before, 1u) << "own windows: one pass";
  }
  const std::uint64_t before = passes.total();
  (void)sched_pc_auto(d.marked, std::span<const SchedWatermark>{});
  EXPECT_EQ(passes.total() - before, 0u) << "no marks, no windows";
#else
  GTEST_SKIP() << "pass counting needs LWM_OBS=ON";
#endif
}

}  // namespace
}  // namespace lwm::wm
