// occupancy_crosscheck_test — the multi-cycle occupancy audit pinned as
// tests: under the dyno(bits) bounded delay model (multi-cycle adds and
// multiplies), the list scheduler's unit occupancy must agree with
// verify_schedule's model in both unit modes on the dfglib kernels and
// the MediaBench table.  A list schedule that over- or under-charges a
// non-pipelined multi-cycle op fails here, not in production.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "cdfg/graph.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "sched/list_sched.h"

namespace lwm::sched {
namespace {

using cdfg::Graph;

std::vector<Graph> kernel_suite() {
  std::vector<Graph> suite;
  suite.push_back(dfglib::make_fir(16));
  suite.push_back(dfglib::make_fft(8));
  suite.push_back(dfglib::make_biquad_cascade(4));
  suite.push_back(dfglib::iir4_parallel());
  const cdfg::DelayModel model = cdfg::DelayModel::dyno(16);
  for (Graph& g : suite) (void)model.annotate(g);
  return suite;
}

ResourceSet tight_units() {
  ResourceSet rs = ResourceSet::unlimited();
  rs.set_count(cdfg::UnitClass::kMul, 2);
  rs.set_count(cdfg::UnitClass::kAlu, 2);
  return rs;
}

TEST(OccupancyCrosscheckTest, ListLegalInBothUnitModesOnKernels) {
  for (const Graph& g : kernel_suite()) {
    SCOPED_TRACE(g.name());
    for (const bool pipelined : {false, true}) {
      ListScheduleOptions opts;
      opts.resources = tight_units();
      opts.pipelined_units = pipelined;
      const Schedule s = list_schedule(g, opts);
      const ScheduleCheck chk =
          verify_schedule(g, s, cdfg::EdgeFilter::all(), opts.resources, -1,
                          pipelined);
      EXPECT_TRUE(chk.ok) << "pipelined=" << pipelined << ": "
                          << (chk.errors.empty() ? "" : chk.errors.front());
    }
  }
}

TEST(OccupancyCrosscheckTest, PipeliningNeverLengthensTheSchedule) {
  // Pipelined units strictly relax occupancy (issue slot vs full d_max),
  // so the same priority order can only finish sooner or at par.
  for (const Graph& g : kernel_suite()) {
    SCOPED_TRACE(g.name());
    ListScheduleOptions pipe;
    pipe.resources = tight_units();
    pipe.pipelined_units = true;
    ListScheduleOptions nopipe = pipe;
    nopipe.pipelined_units = false;
    EXPECT_LE(list_schedule(g, pipe).length(g),
              list_schedule(g, nopipe).length(g));
  }
}

TEST(OccupancyCrosscheckTest, MediabenchSweepUnderDyno) {
  const cdfg::DelayModel model = cdfg::DelayModel::dyno(16);
  for (const dfglib::MediabenchApp& app : dfglib::mediabench_table()) {
    Graph g = dfglib::make_mediabench_app(app);
    (void)model.annotate(g);
    SCOPED_TRACE(g.name());
    for (const bool pipelined : {false, true}) {
      ListScheduleOptions opts;
      opts.resources = tight_units();
      opts.pipelined_units = pipelined;
      const Schedule s = list_schedule(g, opts);
      EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                                  opts.resources, -1, pipelined)
                      .ok)
          << "pipelined=" << pipelined;
    }
  }
}

TEST(DelayTableSchedTest, ListScheduleRespectsTableDelays) {
  Graph g = dfglib::make_fir(16);
  (void)cdfg::DelayModel::dyno(8).annotate(g);
  const Schedule s = list_schedule(g);
  const ScheduleCheck check = verify_schedule(g, s);
  EXPECT_TRUE(check.ok)
      << (check.errors.empty() ? "" : check.errors.front());
  // Unlimited resources: ASAP-optimal, so length == worst-case cp.
  EXPECT_EQ(s.length(g), cdfg::critical_path_length(g));
}

}  // namespace
}  // namespace lwm::sched
