// Equivalence of the incremental force-directed engine with the
// reference implementation: schedules must be bit-identical (same node at
// the same step, chosen through the same floating-point comparisons) on
// every dfglib kernel.  Thread-count invariance of the pool path is
// covered by sched/sched_parallel_test.cpp under the tsan label.
#include <gtest/gtest.h>

#include <vector>

#include "cdfg/analysis.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "fds_reference.h"
#include "sched/force_directed.h"

namespace lwm::sched {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

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

TEST(FdsIncrementalTest, MatchesReferenceOnIir4) {
  const Graph g = dfglib::iir4_parallel();
  const int cp = cdfg::critical_path_length(g);
  for (int latency : {cp, cp + 1, cp + 3}) {
    expect_identical(g, {.latency = latency});
  }
}

TEST(FdsIncrementalTest, MatchesReferenceOnKernels) {
  for (int taps : {4, 16, 33}) {
    const Graph g = dfglib::make_fir(taps);
    const int cp = cdfg::critical_path_length(g);
    expect_identical(g, {.latency = cp + 2});
  }
  {
    const Graph g = dfglib::make_fft(8);
    const int cp = cdfg::critical_path_length(g);
    expect_identical(g, {.latency = cp + 2});
  }
  {
    const Graph g = dfglib::make_biquad_cascade(4);
    const int cp = cdfg::critical_path_length(g);
    expect_identical(g, {.latency = cp + 1});
  }
}

TEST(FdsIncrementalTest, MatchesReferenceOnEveryMediabenchApp) {
  for (const auto& app : dfglib::mediabench_table()) {
    const Graph g = dfglib::make_mediabench_app(app);
    const int cp = cdfg::critical_path_length(g);
    // cp + ~10% slack: the configuration the benches run.
    const int latency = cp + std::max(1, cp / 10);
    expect_identical(g, {.latency = latency});
  }
}

}  // namespace
}  // namespace lwm::sched
