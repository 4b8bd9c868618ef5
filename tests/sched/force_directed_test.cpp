#include "sched/force_directed.h"

#include <gtest/gtest.h>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"

#include "peak_usage.h"

namespace lwm::sched {
namespace {

using cdfg::EdgeKind;
using cdfg::Graph;

TEST(FdsTest, SchedulesWithinCriticalPath) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const Schedule s = force_directed_schedule(g);
  EXPECT_TRUE(verify_schedule(g, s).ok);
  EXPECT_EQ(s.length(g), cdfg::critical_path_length(g));
}

TEST(FdsTest, LatencyBelowCriticalPathThrows) {
  const Graph g = lwm::dfglib::iir4_parallel();
  FdsOptions opts;
  opts.latency = cdfg::critical_path_length(g) - 1;
  EXPECT_THROW((void)force_directed_schedule(g, opts), std::invalid_argument);
}

TEST(FdsTest, RelaxedLatencyReducesPeakUsage) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const int cp = cdfg::critical_path_length(g);

  const Schedule tight = force_directed_schedule(g, {.latency = cp});
  FdsOptions relaxed;
  relaxed.latency = 2 * cp;
  const Schedule loose = force_directed_schedule(g, relaxed);

  EXPECT_TRUE(verify_schedule(g, loose, cdfg::EdgeFilter::all(),
                              ResourceSet::unlimited(), 2 * cp)
                  .ok);
  EXPECT_LE(peak_usage(g, loose).total(), peak_usage(g, tight).total())
      << "FDS exists to trade latency slack for fewer concurrent units";
}

TEST(FdsTest, BalancesBetterThanAsapPacking) {
  // On the IIR the unconstrained list schedule crowds step 0; FDS at the
  // same latency must not be worse in peak ALU+MUL usage.
  const Graph g = lwm::dfglib::iir4_parallel();
  const Schedule asap = list_schedule(g);
  const Schedule fds = force_directed_schedule(g);
  EXPECT_LE(peak_usage(g, fds).total(), peak_usage(g, asap).total());
}

TEST(FdsTest, HonorsTemporalEdges) {
  Graph g = lwm::dfglib::iir4_parallel();
  g.add_edge(g.find("C1"), g.find("C7"), EdgeKind::kTemporal);
  g.add_edge(g.find("C2"), g.find("C8"), EdgeKind::kTemporal);
  const Schedule s = force_directed_schedule(g);
  EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::all()).ok);
}

TEST(FdsTest, MediumGraphVerifies) {
  const Graph g = lwm::dfglib::make_dsp_design("fds_med", 12, 40, 11);
  FdsOptions opts;
  opts.latency = 16;
  const Schedule s = force_directed_schedule(g, opts);
  EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                              ResourceSet::unlimited(), 16)
                  .ok);
}

TEST(FdsTest, Deterministic) {
  const Graph g = lwm::dfglib::make_dsp_design("fds_det", 10, 30, 5);
  const Schedule a = force_directed_schedule(g);
  const Schedule b = force_directed_schedule(g);
  EXPECT_EQ(a.starts(), b.starts());
}

}  // namespace
}  // namespace lwm::sched
