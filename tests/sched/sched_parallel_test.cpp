// Thread-count invariance of the parallel scheduling paths: incremental
// FDS with a pool and parallel branch & bound (including the node_limit
// saturation fallback) must be bit-identical to their serial runs at
// every concurrency.  Runs under the `tsan` ctest label.
#include <gtest/gtest.h>

#include <vector>

#include "cdfg/analysis.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "exec/thread_pool.h"
#include "sched/bnb.h"
#include "sched/force_directed.h"

namespace lwm::sched {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

constexpr int kThreadCounts[] = {1, 2, 8};

void expect_same_starts(const Graph& g, const Schedule& ref,
                        const Schedule& got, int threads) {
  for (NodeId n : g.node_ids()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    EXPECT_EQ(ref.start_of(n), got.start_of(n))
        << g.name() << ": " << g.node(n).name << " at threads = " << threads;
  }
}

TEST(SchedParallelTest, FdsPooledMatchesSerialOnKernels) {
  std::vector<Graph> graphs;
  graphs.push_back(dfglib::iir4_parallel());
  graphs.push_back(dfglib::make_fir(16));
  graphs.push_back(dfglib::make_fft(8));
  graphs.push_back(dfglib::make_biquad_cascade(4));
  for (const Graph& g : graphs) {
    FdsOptions opts;
    opts.latency = cdfg::critical_path_length(g) + 2;
    const Schedule serial = force_directed_schedule(g, opts);
    for (const int threads : kThreadCounts) {
      exec::ThreadPool pool(threads);
      FdsOptions popts = opts;
      popts.pool = &pool;
      expect_same_starts(g, serial, force_directed_schedule(g, popts),
                         threads);
    }
  }
}

TEST(SchedParallelTest, BnbMinLatencyIsThreadCountInvariant) {
  struct Case {
    Graph g;
    ResourceSet resources;
  };
  std::vector<Case> cases;
  cases.push_back({dfglib::iir4_parallel(), ResourceSet::datapath(2, 2)});
  cases.push_back({dfglib::make_fir(8), ResourceSet::datapath(1, 2)});
  cases.push_back({dfglib::make_biquad_cascade(3), ResourceSet::datapath(2, 1)});
  for (const Case& c : cases) {
    BnbOptions opts;
    opts.resources = c.resources;
    const BnbResult serial = bnb_min_latency(c.g, opts);
    for (const int threads : kThreadCounts) {
      exec::ThreadPool pool(threads);
      BnbOptions popts = opts;
      popts.pool = &pool;
      const BnbResult r = bnb_min_latency(c.g, popts);
      EXPECT_EQ(r.latency, serial.latency) << "threads = " << threads;
      EXPECT_EQ(r.optimal, serial.optimal) << "threads = " << threads;
      expect_same_starts(c.g, serial.schedule, r.schedule, threads);
    }
  }
}

TEST(SchedParallelTest, NodeLimitSaturationIsThreadCountInvariant) {
  // A limit far too small to finish: the solver must fall back to the
  // list-scheduling seed with optimal = false at every thread count.
  const Graph g = dfglib::iir4_parallel();
  BnbOptions opts;
  opts.resources = ResourceSet::datapath(2, 2);
  opts.node_limit = 3;
  const BnbResult serial = bnb_min_latency(g, opts);
  EXPECT_FALSE(serial.optimal);
  for (const int threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    BnbOptions popts = opts;
    popts.pool = &pool;
    const BnbResult r = bnb_min_latency(g, popts);
    EXPECT_EQ(r.latency, serial.latency) << "threads = " << threads;
    EXPECT_FALSE(r.optimal) << "threads = " << threads;
    expect_same_starts(g, serial.schedule, r.schedule, threads);
    // search_nodes is deliberately NOT compared: it is an effort metric
    // and nondeterministic under a pool (see bnb.h).
  }
}

}  // namespace
}  // namespace lwm::sched
