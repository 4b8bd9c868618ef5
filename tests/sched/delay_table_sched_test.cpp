// Scheduler equivalence under the non-unit bounded delay table: FDS
// schedules against d_max, so on a DelayModel::dyno()-annotated graph
// the incremental engine must stay bit-identical to the reference, and
// the pool path must be invariant in the thread count.  List scheduling
// and B&B must keep producing verifiable schedules there too.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "exec/thread_pool.h"
#include "fds_reference.h"
#include "sched/bnb.h"
#include "sched/force_directed.h"
#include "sched/list_sched.h"

namespace lwm::sched {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

Graph annotated(Graph g, int bits = 8) {
  cdfg::DelayModel::dyno(bits).annotate(g);
  return g;
}

void expect_identical(const Graph& g, const FdsOptions& opts) {
  const Schedule ref = force_directed_schedule_reference(g, opts);
  const Schedule inc = force_directed_schedule(g, opts);
  ASSERT_EQ(ref.starts().size(), inc.starts().size());
  for (NodeId n : g.node_ids()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    EXPECT_EQ(ref.start_of(n), inc.start_of(n))
        << g.name() << ": " << g.node(n).name;
  }
}

TEST(DelayTableSchedTest, FdsMatchesReferenceOnKernels) {
  for (Graph g : {annotated(dfglib::iir4_parallel()),
                  annotated(dfglib::make_fir(16)),
                  annotated(dfglib::make_fft(8), 16),
                  annotated(dfglib::make_biquad_cascade(4), 16)}) {
    ASSERT_TRUE(g.has_bounded_delays()) << g.name();
    const int cp = cdfg::critical_path_length(g);
    for (int latency : {cp, cp + 2}) {
      expect_identical(g, {.latency = latency});
    }
  }
}

TEST(DelayTableSchedTest, FdsMatchesReferenceOnSmallMediabench) {
  for (const auto& app : dfglib::mediabench_table()) {
    if (app.operations > 600) continue;  // keep the tier-1 suite fast
    const Graph g = annotated(dfglib::make_mediabench_app(app));
    const int cp = cdfg::critical_path_length(g);
    const int latency = cp + std::max(1, cp / 10);
    expect_identical(g, {.latency = latency});
  }
}

TEST(DelayTableSchedTest, FdsThreadCountInvariantUnderTable) {
  const Graph g = annotated(dfglib::make_fir(33));
  const int cp = cdfg::critical_path_length(g);
  FdsOptions opts{.latency = cp + 2};
  const Schedule serial = force_directed_schedule(g, opts);
  for (int threads : {2, 4}) {
    exec::ThreadPool pool(threads);
    opts.pool = &pool;
    const Schedule par = force_directed_schedule(g, opts);
    for (NodeId n : g.node_ids()) {
      if (!cdfg::is_executable(g.node(n).kind)) continue;
      EXPECT_EQ(serial.start_of(n), par.start_of(n))
          << threads << " threads: " << g.node(n).name;
    }
  }
}

TEST(DelayTableSchedTest, ListScheduleRespectsTableDelays) {
  const Graph g = annotated(dfglib::make_fir(16));
  const Schedule s = list_schedule(g);
  const ScheduleCheck check = verify_schedule(g, s);
  EXPECT_TRUE(check.ok)
      << (check.errors.empty() ? "" : check.errors.front());
  // Unlimited resources: ASAP-optimal, so length == worst-case cp.
  EXPECT_EQ(s.length(g), cdfg::critical_path_length(g));
}

TEST(DelayTableSchedTest, BnbStaysOptimalUnderTableDelays) {
  const Graph g = annotated(dfglib::iir4_parallel());
  BnbOptions opts;
  opts.resources = ResourceSet::datapath(2, 2);
  const BnbResult r = bnb_min_latency(g, opts);
  EXPECT_TRUE(r.optimal);
  const ScheduleCheck check = verify_schedule(
      g, r.schedule, cdfg::EdgeFilter::all(), opts.resources, r.latency);
  EXPECT_TRUE(check.ok)
      << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_GE(r.latency, cdfg::critical_path_length(g));
}

}  // namespace
}  // namespace lwm::sched
