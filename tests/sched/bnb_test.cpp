#include "sched/bnb.h"

#include <gtest/gtest.h>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "sched/list_sched.h"

namespace lwm::sched {
namespace {

using cdfg::Builder;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

TEST(BnbTest, UnlimitedResourcesHitCriticalPath) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const BnbResult r = bnb_min_latency(g);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.latency, cdfg::critical_path_length(g));
  EXPECT_TRUE(verify_schedule(g, r.schedule).ok);
}

TEST(BnbTest, MatchesHandComputedOptimum) {
  // 4 independent adds on 2 ALUs: optimal latency is 2.
  Builder b("four_adds");
  const NodeId in = b.input("in");
  for (int i = 0; i < 4; ++i) {
    b.output("o" + std::to_string(i),
             b.op(OpKind::kAdd, "a" + std::to_string(i), {in, in}));
  }
  const Graph g = std::move(b).build();
  BnbOptions opts;
  opts.resources = ResourceSet::datapath(2, 0);
  const BnbResult r = bnb_min_latency(g, opts);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.latency, 2);
}

TEST(BnbTest, NeverWorseThanListScheduling) {
  const Graph g = lwm::dfglib::iir4_parallel();
  for (const int alus : {1, 2, 3}) {
    BnbOptions opts;
    opts.resources = ResourceSet::datapath(alus, 2);
    const BnbResult r = bnb_min_latency(g, opts);
    ListScheduleOptions lopts;
    lopts.resources = opts.resources;
    const int list_len = list_schedule(g, lopts).length(g);
    EXPECT_LE(r.latency, list_len) << "alus=" << alus;
    EXPECT_TRUE(verify_schedule(g, r.schedule, cdfg::EdgeFilter::all(),
                                opts.resources)
                    .ok);
  }
}

TEST(BnbTest, FindsImprovementOverGreedy) {
  // A shape where greedy critical-path priority is suboptimal under one
  // ALU is hard to build tiny; at minimum B&B must confirm optimality of
  // the serialized bound: 9 adds, 1 ALU -> at least 9 steps end-to-end.
  const Graph g = lwm::dfglib::iir4_parallel();
  BnbOptions opts;
  opts.resources = ResourceSet::datapath(1, 8);
  const BnbResult r = bnb_min_latency(g, opts);
  EXPECT_GE(r.latency, 9);
  EXPECT_TRUE(r.optimal);
}

TEST(BnbTest, NodeLimitTruncatesGracefully) {
  const Graph g = lwm::dfglib::iir4_parallel();
  BnbOptions opts;
  opts.resources = ResourceSet::datapath(2, 2);
  opts.node_limit = 10;
  const BnbResult r = bnb_min_latency(g, opts);
  EXPECT_FALSE(r.optimal);
  // Still returns a valid (seed) schedule.
  EXPECT_TRUE(verify_schedule(g, r.schedule, cdfg::EdgeFilter::all(),
                              opts.resources)
                  .ok);
}

TEST(BnbTest, HonorsWatermarkTemporalEdges) {
  // Exact scheduling of a *watermarked* specification: the optimum under
  // the temporal edges can only be >= the unconstrained optimum, and the
  // resulting schedule must satisfy the constraints.
  cdfg::Graph g = lwm::dfglib::iir4_parallel();
  g.add_edge(g.find("C4"), g.find("C8"), cdfg::EdgeKind::kTemporal);
  g.add_edge(g.find("C8"), g.find("C3"), cdfg::EdgeKind::kTemporal);
  BnbOptions opts;
  opts.resources = ResourceSet::datapath(2, 2);
  const BnbResult marked = bnb_min_latency(g, opts);
  cdfg::Graph spec = g;
  spec.strip_temporal_edges();
  const BnbResult free_sched = bnb_min_latency(spec, opts);
  EXPECT_GE(marked.latency, free_sched.latency);
  EXPECT_TRUE(verify_schedule(g, marked.schedule, cdfg::EdgeFilter::all(),
                              opts.resources)
                  .ok);
}

}  // namespace
}  // namespace lwm::sched
