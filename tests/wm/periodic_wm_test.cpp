// periodic_wm_test — watermarking periodic (marked-graph) schedules:
// periodic start windows and psi counting against a hand-enumerable
// oracle, both read through sched_pc_auto's exact path, its II dispatch,
// and end-to-end embed -> modulo-schedule -> detect on a token-annotated
// kernel.
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "sched/modulo.h"
#include "wm/detector.h"
#include "poisson_padding.h"
#include "wm/pc.h"

namespace lwm::wm {
namespace {

using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

SchedWmOptions iir_options() {
  SchedWmOptions opts;
  opts.domain.tau = 6;
  opts.domain.keep_num = 1;
  opts.domain.keep_den = 1;
  opts.k = 3;
  opts.epsilon = 0.3;
  return opts;
}

// Three independent ops — a (add, delay 1), b (add, delay 1),
// m (mul, delay 3) — plus a loop-carried edge m -> a with one token.
// Every periodic quantity below is small enough to enumerate by hand.
struct TinyCase {
  Graph g;
  NodeId a, b, m;
};

TinyCase tiny() {
  TinyCase t;
  t.g.set_name("tiny_periodic");
  t.a = t.g.add_node(OpKind::kAdd, "a");
  t.b = t.g.add_node(OpKind::kAdd, "b");
  t.m = t.g.add_node(OpKind::kMul, "m", /*delay=*/3);
  t.g.add_edge(t.m, t.a, EdgeKind::kData, 1);
  return t;
}

/// A mark over `subtree` carrying the temporal constraints `edges`.
SchedWatermark mark_of(std::vector<NodeId> subtree,
                       std::vector<std::pair<NodeId, NodeId>> edges) {
  SchedWatermark wm;
  wm.root = subtree.front();
  wm.subtree = std::move(subtree);
  for (const auto& [src, dst] : edges) wm.constraints.push_back({src, dst});
  return wm;
}

/// The exact path's floor for a mark no schedule satisfies: one decade
/// below 1/psi_n, so it reads psi_n back.
double floor_for(double psi_n) { return -std::log10(psi_n) - 1.0; }

TEST(PeriodicTimingTest, WindowsFollowTokenWeightedConstraints) {
  const TinyCase t = tiny();
  // At II = 2, the carried edge m -> a (delay 3, one token) demands
  // start(a) + 2 >= start(m) + 3, i.e. start(a) >= start(m) + 1.  With
  // the flat makespan 3 (m alone), the windows are m = {0}, a = {1, 2},
  // b = {0, 1, 2}; each single-edge mark below reads them back.
  //
  // b -> a over {a, b}: (b, a) in {(0,1), (0,2), (1,2)} of 2 * 3.
  PcEstimate est = sched_pc_auto(t.g, mark_of({t.a, t.b}, {{t.b, t.a}}), 2);
  EXPECT_TRUE(est.exact);
  EXPECT_NEAR(est.log10_pc, std::log10(3.0 / 6.0), 1e-12);
  // m -> b over {m, b}: b would need start 3, past its window; psi_n is
  // b's three starts times m's one.
  est = sched_pc_auto(t.g, mark_of({t.m, t.b}, {{t.m, t.b}}), 2);
  EXPECT_TRUE(est.degenerate);
  EXPECT_NEAR(est.log10_pc, floor_for(3.0), 1e-12);

  // A larger II relaxes the carried constraint to nothing: a = {0, 1, 2}
  // and b -> a keeps (0,1), (0,2), (1,2) of 3 * 3.
  est = sched_pc_auto(t.g, mark_of({t.a, t.b}, {{t.b, t.a}}), 3);
  EXPECT_NEAR(est.log10_pc, std::log10(3.0 / 9.0), 1e-12);
}

TEST(PeriodicTimingTest, InfeasibleIiThrows) {
  // a -> b -> a with one token on the back-edge: cycle delay 2 over one
  // token, so RecMII = 2 and II = 1 admits no periodic schedule.
  Graph g;
  g.set_name("two_loop");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  g.add_edge(a, b);
  g.add_edge(b, a, EdgeKind::kData, 1);
  const SchedWatermark wm = mark_of({a, b}, {});
  EXPECT_NO_THROW((void)sched_pc_auto(g, wm, 2));
  EXPECT_THROW((void)sched_pc_auto(g, wm, 1), std::runtime_error);
}

TEST(PeriodicPsiTest, CountsMatchHandEnumeration) {
  const TinyCase t = tiny();
  // Windows at II = 2 (previous test): m = {0}, a = {1, 2}, b = {0, 1, 2},
  // with the pairwise demand start(a) >= start(m) + 1 already folded in:
  // psi_n = 1 * 2 * 3 = 6.  The temporal constraint a -> b (flat sense,
  // delay(a) = 1) leaves only (a=1, b=2): psi_w = 1.
  const PcEstimate est =
      sched_pc_auto(t.g, mark_of({t.a, t.b, t.m}, {{t.a, t.b}}), 2);
  EXPECT_TRUE(est.exact);
  EXPECT_FALSE(est.degenerate);
  EXPECT_NEAR(est.log10_pc, std::log10(1.0 / 6.0), 1e-12);
  // a -> b and b -> a together admit nothing: the floor reads psi_n = 6.
  const PcEstimate none = sched_pc_auto(
      t.g, mark_of({t.a, t.b, t.m}, {{t.a, t.b}, {t.b, t.a}}), 2);
  EXPECT_TRUE(none.degenerate);
  EXPECT_NEAR(none.log10_pc, floor_for(6.0), 1e-12);
}

TEST(PeriodicPsiTest, LoosenedIiGrowsTheSpace) {
  const TinyCase t = tiny();
  // II = 3 frees a's window to [0, 2]: psi_n = 9, and a -> b admits
  // (0,1), (0,2), (1,2): psi_w = 3.
  const PcEstimate est =
      sched_pc_auto(t.g, mark_of({t.a, t.b, t.m}, {{t.a, t.b}}), 3);
  EXPECT_NEAR(est.log10_pc, std::log10(3.0 / 9.0), 1e-12);
  const PcEstimate none = sched_pc_auto(
      t.g, mark_of({t.a, t.b, t.m}, {{t.a, t.b}, {t.b, t.a}}), 3);
  EXPECT_NEAR(none.log10_pc, floor_for(9.0), 1e-12);
}

TEST(PeriodicPcTest, AutoDispatchesOnIi) {
  const TinyCase t = tiny();
  const SchedWatermark wm = mark_of({t.a, t.b, t.m}, {{t.a, t.b}});

  // ii = 0 counts flat schedules of the skeleton, where the carried
  // edge is absent: a = {0, 1, 2} and a -> b keeps 3 of 9.  ii = 2
  // counts periodic ones: 1 of 6.
  const PcEstimate flat = sched_pc_auto(t.g, wm);
  const PcEstimate periodic = sched_pc_auto(t.g, wm, 2);
  EXPECT_TRUE(flat.exact);
  EXPECT_TRUE(periodic.exact);
  EXPECT_NEAR(flat.log10_pc, std::log10(3.0 / 9.0), 1e-12);
  EXPECT_NEAR(periodic.log10_pc, std::log10(1.0 / 6.0), 1e-12);

  // Past the node threshold the periodic Poisson model runs, still a
  // (non-exact) probability.
  const PcEstimate poisson = sched_pc_auto(past_exact_threshold(t.g), wm, 2);
  EXPECT_FALSE(poisson.exact);
  EXPECT_LE(poisson.log10_pc, 0.0);
}

TEST(PeriodicWmTest, EmbedScheduleDetectRoundTrip) {
  // End-to-end on a real kernel: plan the watermark on the acyclic
  // skeleton, close the graph into a marked one, modulo-schedule the
  // whole thing, and recover the mark from the periodic schedule's flat
  // starts with the unmodified detector.
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = embed_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  ASSERT_FALSE(wm->constraints.empty());

  (void)lwm::dfglib::add_feedback(g, 2);
  ASSERT_TRUE(g.has_token_edges());

  const sched::ModuloResult r = sched::modulo_schedule(g);
  EXPECT_GE(r.ii, r.min_ii);
  const sched::ScheduleCheck chk =
      sched::verify_periodic_schedule(g, r.schedule, r.ii);
  ASSERT_TRUE(chk.ok) << (chk.errors.empty() ? "" : chk.errors.front());

  // The temporal edges hold in the flat (modulo-II) sense...
  for (const TemporalConstraint& c : wm->constraints) {
    EXPECT_GE(r.schedule.start_of(c.dst),
              r.schedule.start_of(c.src) + g.node(c.src).delay);
  }
  // ...so the flat-start detector recovers the mark unchanged.
  const SchedRecord record = SchedRecord::from(*wm, g);
  const SchedDetectionReport report =
      detect_sched_watermark(g, r.schedule, alice(), record);
  EXPECT_TRUE(report.detected());
  EXPECT_EQ(report.best_root, g.find("A9"));
}

TEST(PeriodicWmTest, CarveIgnoresTokenEdges) {
  // DAG-assumption regression: the locality carve's fan-in walks used
  // to skip only temporal edges, so a loop-carried feedback edge inside
  // a cone reordered the locality between embed (on the skeleton) and
  // detect (on the marked graph).  Every root must order identically
  // with and without the feedback edge.
  Graph skeleton = lwm::dfglib::iir4_parallel();
  Graph marked = skeleton;
  (void)lwm::dfglib::add_feedback(marked, 1);
  for (const NodeId n : skeleton.nodes()) {
    if (!cdfg::is_executable(skeleton.node(n).kind)) continue;
    EXPECT_EQ(order_locality(skeleton, n, 6), order_locality(marked, n, 6))
        << "root " << skeleton.node(n).name;
  }
}

TEST(PeriodicWmTest, PeriodicPcIsFiniteAndNegative) {
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = embed_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  (void)lwm::dfglib::add_feedback(g, 2);
  const int ii = sched::recurrence_min_ii(g);
  ASSERT_GE(ii, 1);

  const PcEstimate est = sched_pc_auto(g, *wm, ii);
  EXPECT_LT(est.log10_pc, 0.0) << "constraints must shrink the periodic space";

  const PcEstimate poisson = sched_pc_auto(past_exact_threshold(g), *wm, ii);
  EXPECT_FALSE(poisson.exact);
  EXPECT_LE(poisson.log10_pc, 0.0);
}

}  // namespace
}  // namespace lwm::wm
