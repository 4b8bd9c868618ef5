#include "hls/datapath.h"

#include <gtest/gtest.h>

#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/schedule.h"
#include "wm/reg_constraints.h"
#include "wm/sched_constraints.h"

namespace lwm::hls {
namespace {

using cdfg::Graph;

TEST(DatapathTest, IirAtCriticalPath) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const Datapath dp = synthesize_datapath(g);
  EXPECT_EQ(dp.latency, cdfg::critical_path_length(g));
  EXPECT_GT(dp.total_units(), 0);
  EXPECT_GT(dp.registers, 0);
  // The schedule respects the derived resource vector.
  sched::ResourceSet res = sched::ResourceSet::unlimited();
  res.set_count(cdfg::UnitClass::kAlu,
                dp.units[static_cast<std::size_t>(cdfg::UnitClass::kAlu)]);
  res.set_count(cdfg::UnitClass::kMul,
                dp.units[static_cast<std::size_t>(cdfg::UnitClass::kMul)]);
  EXPECT_TRUE(sched::verify_schedule(g, dp.schedule, cdfg::EdgeFilter::all(),
                                     res, dp.latency)
                  .ok);
  // Binding is legal for the schedule's lifetimes.
  const auto lifetimes = regbind::compute_lifetimes(g, dp.schedule);
  EXPECT_TRUE(regbind::verify_binding(lifetimes, dp.binding).ok);
}

TEST(DatapathTest, RelaxedBudgetTradesLatencyForArea) {
  const Graph g = lwm::dfglib::make_dsp_design("dp_trade", 12, 120, 201);
  const int cp = cdfg::critical_path_length(g);
  const Datapath tight = synthesize_datapath(g, {.latency = cp});
  DatapathOptions relaxed;
  relaxed.latency = 3 * cp;
  const Datapath loose = synthesize_datapath(g, relaxed);
  EXPECT_LE(loose.total_units(), tight.total_units());
  EXPECT_GE(loose.latency, 0);
  EXPECT_LE(loose.latency, 3 * cp);
  EXPECT_LE(tight.latency, cp);
}

TEST(DatapathTest, AreaBreakdownPositiveAndMonotone) {
  const Graph g = lwm::dfglib::make_dsp_design("dp_area", 12, 80, 202);
  const Datapath dp = synthesize_datapath(g);
  EXPECT_GT(dp.area(), 0.0);
  Datapath more_regs = dp;
  more_regs.registers += 1;
  EXPECT_NEAR(more_regs.area() - dp.area(), kRegisterArea, 1e-9);
  EXPECT_NE(dp.to_string().find("regs="), std::string::npos);
}

TEST(DatapathTest, WatermarkEdgesRaiseCostObservably) {
  Graph g = lwm::dfglib::make_dsp_design("dp_wm", 14, 160, 203);
  const crypto::Signature sig("dp", "datapath-key");
  const Datapath baseline = synthesize_datapath(
      g, {.filter = cdfg::EdgeFilter::specification()});

  wm::SchedWmOptions wopts;
  wopts.domain.tau = 5;
  wopts.k = 3;
  wopts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(g, sig, 4, wopts);
  ASSERT_FALSE(marks.empty());
  const Datapath marked = synthesize_datapath(g);  // honors temporal edges
  // The watermarked datapath can cost more but never less work.
  EXPECT_GE(marked.latency, 0);
  // The marked schedule satisfies the constraints end to end.
  for (const auto& m : marks) {
    for (const auto& c : m.constraints) {
      EXPECT_LE(marked.schedule.start_of(c.src) + g.node(c.src).delay,
                marked.schedule.start_of(c.dst));
    }
  }
  EXPECT_GT(baseline.total_units(), 0);
}

TEST(DatapathTest, RegisterConstraintsFlowThrough) {
  const Graph g = lwm::dfglib::make_dsp_design("dp_reg", 14, 160, 204);
  const crypto::Signature sig("dp", "datapath-key");
  const Datapath plain = synthesize_datapath(g);
  const auto lifetimes = regbind::compute_lifetimes(g, plain.schedule);
  wm::RegWmOptions ropts;
  ropts.domain.tau = 5;
  ropts.m = 3;
  const auto marks = wm::plan_reg_watermarks(g, lifetimes, sig, 3, ropts);
  ASSERT_FALSE(marks.empty());

  DatapathOptions opts;
  opts.reg_constraints = wm::to_binding_constraints(marks);
  const Datapath constrained = synthesize_datapath(g, opts);
  for (const auto& m : marks) {
    for (const auto& c : m.constraints) {
      EXPECT_EQ(constrained.binding.reg(c.u), constrained.binding.reg(c.v));
    }
  }
  EXPECT_GE(constrained.registers, plain.registers);
}

TEST(DatapathTest, InfeasibleRegisterConstraintsThrow) {
  const Graph g = lwm::dfglib::iir4_parallel();
  DatapathOptions opts;
  // share + separate on the same pair is contradictory under any
  // schedule.
  opts.reg_constraints.share.emplace_back(g.find("A1"), g.find("A9"));
  opts.reg_constraints.separate.emplace_back(g.find("A1"), g.find("A9"));
  EXPECT_THROW((void)synthesize_datapath(g, opts), std::invalid_argument);
}

TEST(DatapathTest, MuxCountReflectsSharing) {
  // Heavy sharing (tight units, long latency) must imply muxing; a fully
  // spatial design (everything parallel, one op per unit) needs none.
  const Graph g = lwm::dfglib::make_dsp_design("dp_mux", 10, 80, 205);
  const int cp = cdfg::critical_path_length(g);
  DatapathOptions shared;
  shared.latency = 4 * cp;
  const Datapath dp = synthesize_datapath(g, shared);
  EXPECT_GT(dp.mux_inputs, 0) << "time-multiplexed units need steering";
}

}  // namespace
}  // namespace lwm::hls
