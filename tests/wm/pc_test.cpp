#include "wm/pc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/enumerate.h"

namespace lwm::wm {
namespace {

using cdfg::Builder;
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

/// A mark whose only constraint is src -> dst: its window-model P_c is
/// that edge's order probability.
SchedWatermark one_edge(NodeId src, NodeId dst) {
  SchedWatermark wm;
  wm.root = dst;
  wm.subtree = {src, dst};
  wm.constraints.push_back({src, dst});
  return wm;
}

TEST(EdgeProbabilityTest, HandComputedWindows) {
  // Two free ops beside a three-op chain, latency 3: windows [0,2] x
  // [0,2]; P(b >= a+1) = 3/9.
  Builder b("two");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId y = b.op(OpKind::kMul, "b", {in, in});
  const NodeId c0 = b.op(OpKind::kAdd, "c0", {in, in});
  const NodeId c1 = b.op(OpKind::kAdd, "c1", {c0, c0});
  const NodeId c2 = b.op(OpKind::kAdd, "c2", {c1, c1});
  b.output("oa", x);
  b.output("ob", y);
  b.output("oc", c2);
  const Graph g = std::move(b).build();
  ASSERT_EQ(cdfg::critical_path_length(g), 3);
  for (const auto& [src, dst] : {std::pair{"a", "b"}, std::pair{"b", "a"}}) {
    const SchedWatermark one[] = {one_edge(g.find(src), g.find(dst))};
    const PcEstimate est = sched_pc_window_model(g, one);
    EXPECT_FALSE(est.degenerate);
    EXPECT_DOUBLE_EQ(est.log10_pc, std::log10(3.0 / 9.0)) << src << "->" << dst;
  }
}

TEST(EdgeProbabilityTest, ImpossibleOrderIsZero) {
  Builder b("chain");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "x", {in, in});
  const NodeId y = b.op(OpKind::kAdd, "y", {x});
  b.output("o", y);
  const Graph g = std::move(b).build();
  // p = 0: the window model's per-edge floor, flagged degenerate.
  const SchedWatermark backward[] = {one_edge(g.find("y"), g.find("x"))};
  const PcEstimate impossible = sched_pc_window_model(g, backward);
  EXPECT_TRUE(impossible.degenerate);
  EXPECT_DOUBLE_EQ(impossible.log10_pc, -6.0);
  // p = 1: no evidence at all.
  const SchedWatermark forward[] = {one_edge(g.find("x"), g.find("y"))};
  const PcEstimate certain = sched_pc_window_model(g, forward);
  EXPECT_FALSE(certain.degenerate);
  EXPECT_DOUBLE_EQ(certain.log10_pc, 0.0);
}

TEST(SchedPcTest, ExactMatchesEnumeratedRatio) {
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = plan_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  const PcEstimate est = sched_pc_auto(g, *wm);
  EXPECT_TRUE(est.exact);
  EXPECT_LT(est.log10_pc, 0.0) << "constraints must shrink the space";

  // Cross-check against direct enumeration.
  std::vector<NodeId> subset;
  for (const NodeId n : wm->subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  std::vector<sched::ExtraPrecedence> extra;
  for (const TemporalConstraint& c : wm->constraints) {
    extra.push_back({c.src, c.dst});
  }
  const cdfg::TimingInfo timing =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  const auto denom = sched::count_schedules(g, timing, subset);
  const auto numer = sched::count_schedules(g, timing, subset, extra);
  ASSERT_GT(denom.count, 0u);
  ASSERT_GT(numer.count, 0u);
  EXPECT_NEAR(est.log10_pc,
              std::log10(static_cast<double>(numer.count)) -
                  std::log10(static_cast<double>(denom.count)),
              1e-12);
  EXPECT_LT(numer.count, denom.count);
}

TEST(SchedPcTest, WindowModelIsNegativeAndAdditive) {
  Graph g = lwm::dfglib::make_dsp_design("pc_add", 12, 200, 31);
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(g, alice(), 3, opts);
  ASSERT_GE(marks.size(), 2u);
  g.strip_temporal_edges();

  const PcEstimate all = sched_pc_window_model(g, marks);
  EXPECT_LT(all.log10_pc, 0.0);
  double sum = 0.0;
  for (const auto& m : marks) {
    const SchedWatermark one[] = {m};
    sum += sched_pc_window_model(g, one).log10_pc;
  }
  EXPECT_NEAR(all.log10_pc, sum, 1e-9) << "independence model is additive";
}

TEST(SchedPcTest, MoreEdgesStrongerProof) {
  Graph g = lwm::dfglib::make_dsp_design("pc_k", 12, 120, 33);
  double prev = 0.0;
  for (const int k : {1, 3, 5}) {
    Graph work = g;
    SchedWmOptions opts;
    opts.domain.tau = 6;
    opts.k = k;
    opts.epsilon = 0.3;
    const auto marks = embed_local_watermarks(work, alice(), 2, opts);
    if (marks.empty()) continue;
    const PcEstimate est = sched_pc_window_model(work, marks);
    EXPECT_LE(est.log10_pc, prev) << "k=" << k;
    prev = est.log10_pc;
  }
  EXPECT_LT(prev, 0.0);
}

TEST(SchedPcTest, SampledAgreesWithExactOnSmallLocality) {
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = plan_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  const PcEstimate exact = sched_pc_auto(g, *wm);
  ASSERT_TRUE(exact.exact);
  // Note: the exact count enumerates only the subtree; sampling draws
  // full-graph schedules whose restriction to the subtree is uniform-ish
  // but not identical, so compare with a generous band.
  const SchedWatermark marks[] = {*wm};
  const PcEstimate sampled = sched_pc_sampled(g, marks, 20000, 42);
  EXPECT_LT(sampled.log10_pc, 0.0);
  EXPECT_NEAR(sampled.log10_pc, exact.log10_pc, 1.0);
}

TEST(SchedPcTest, SampledIsDeterministicPerSeed) {
  Graph g = lwm::dfglib::make_dsp_design("pc_s", 12, 120, 35);
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(g, alice(), 2, opts);
  ASSERT_FALSE(marks.empty());
  g.strip_temporal_edges();
  const PcEstimate a = sched_pc_sampled(g, marks, 2000, 7);
  const PcEstimate b = sched_pc_sampled(g, marks, 2000, 7);
  EXPECT_DOUBLE_EQ(a.log10_pc, b.log10_pc);
  EXPECT_THROW((void)sched_pc_sampled(g, marks, 0, 7), std::invalid_argument);
}

TEST(TmPcTest, ForcedMatchingsMultiply) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_pc", 10, 60, 8);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmWmOptions opts;
  opts.z = 3;
  opts.epsilon = 0.3;
  const auto wm = plan_tm_watermark(g, lib, alice(), opts);
  ASSERT_TRUE(wm.has_value());
  const PcEstimate est = tm_pc(g, lib, *wm);
  EXPECT_LT(est.log10_pc, 0.0);

  // One enforced matching gives a weaker proof than all of them.
  TmWatermark single = *wm;
  single.enforced.resize(1);
  EXPECT_GE(tm_pc(g, lib, single).log10_pc, est.log10_pc);
}

TEST(TmPcTest, ExactDefinitionOnSmallDesign) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_pcx", 8, 24, 9);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmWmOptions opts;
  opts.z = 2;
  opts.epsilon = 0.3;
  const auto wm = plan_tm_watermark(g, lib, alice(), opts);
  ASSERT_TRUE(wm.has_value());
  const PcEstimate exact = tm_pc_exact(g, lib, *wm);
  EXPECT_LE(exact.log10_pc, 0.0);
  // The quality-Q definition can only make coincidence *rarer* than (or
  // equal to) leaving the covering free.
  if (exact.exact) {
    EXPECT_LE(exact.log10_pc, 0.0);
  }
}

}  // namespace
}  // namespace lwm::wm
