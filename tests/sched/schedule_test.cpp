#include "sched/schedule.h"

#include <gtest/gtest.h>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"

#include "peak_usage.h"

namespace lwm::sched {
namespace {

using cdfg::Builder;
using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

Graph pipeline3() {
  Builder b("p3");
  const NodeId in = b.input("in");
  const NodeId a = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId c = b.op(OpKind::kMul, "b", {a});
  const NodeId d = b.op(OpKind::kAdd, "c", {c});
  b.output("o", d);
  return std::move(b).build();
}

TEST(ScheduleTest, LengthFromStartsAndDelays) {
  const Graph g = pipeline3();
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  s.set_start(g.find("b"), 1);
  s.set_start(g.find("c"), 2);
  EXPECT_EQ(s.length(g), 3);
  EXPECT_TRUE(s.is_scheduled(g.find("a")));
  EXPECT_FALSE(s.is_scheduled(g.find("in")));
}

TEST(VerifyTest, AcceptsLegalSchedule) {
  const Graph g = pipeline3();
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  s.set_start(g.find("b"), 1);
  s.set_start(g.find("c"), 2);
  const ScheduleCheck check = verify_schedule(g, s);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
}

TEST(VerifyTest, CatchesPrecedenceViolation) {
  const Graph g = pipeline3();
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  s.set_start(g.find("b"), 0);  // starts with its producer
  s.set_start(g.find("c"), 2);
  const ScheduleCheck check = verify_schedule(g, s);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.errors.empty());
}

TEST(VerifyTest, CatchesUnscheduledOperation) {
  const Graph g = pipeline3();
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  const ScheduleCheck check = verify_schedule(g, s);
  EXPECT_FALSE(check.ok);
}

TEST(VerifyTest, TemporalEdgesEnforcedOnlyWithFullFilter) {
  Graph g = pipeline3();
  // b before a is impossible via data edges; add a *temporal* constraint
  // c -> a (schedule c strictly before a) instead — violated below.
  g.add_edge(g.find("c"), g.find("a"), EdgeKind::kTemporal);
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  s.set_start(g.find("b"), 1);
  s.set_start(g.find("c"), 2);
  EXPECT_FALSE(verify_schedule(g, s, cdfg::EdgeFilter::all()).ok);
  EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::specification()).ok);
}

TEST(VerifyTest, LatencyBoundChecked) {
  const Graph g = pipeline3();
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  s.set_start(g.find("b"), 1);
  s.set_start(g.find("c"), 5);
  EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                              ResourceSet::unlimited(), 6)
                  .ok);
  EXPECT_FALSE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                               ResourceSet::unlimited(), 5)
                   .ok);
}

TEST(VerifyTest, ResourceOveruseCaught) {
  Builder b("wide");
  const NodeId in = b.input("in");
  std::vector<NodeId> adds;
  for (int i = 0; i < 3; ++i) {
    adds.push_back(b.op(OpKind::kAdd, "a" + std::to_string(i), {in, in}));
  }
  for (std::size_t i = 0; i < adds.size(); ++i) {
    b.output("o" + std::to_string(i), adds[i]);
  }
  const Graph g = std::move(b).build();
  Schedule s(g);
  for (const NodeId a : adds) s.set_start(a, 0);
  EXPECT_TRUE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                              ResourceSet::datapath(3, 0))
                  .ok);
  EXPECT_FALSE(verify_schedule(g, s, cdfg::EdgeFilter::all(),
                               ResourceSet::datapath(2, 0))
                   .ok);
}

TEST(PeakUsageTest, CountsConcurrency) {
  const Graph g = pipeline3();
  Schedule s(g);
  s.set_start(g.find("a"), 0);
  s.set_start(g.find("b"), 1);
  s.set_start(g.find("c"), 1);  // illegal but peak_usage doesn't care
  const UnitUsage u = peak_usage(g, s);
  EXPECT_EQ(u.peak[static_cast<std::size_t>(cdfg::UnitClass::kAlu)], 1);
  EXPECT_EQ(u.peak[static_cast<std::size_t>(cdfg::UnitClass::kMul)], 1);
  EXPECT_EQ(u.total(), 2);
}

TEST(ResourceSetTest, Accessors) {
  const ResourceSet r = ResourceSet::vliw4();
  EXPECT_EQ(r.count(cdfg::UnitClass::kAlu), 4);
  EXPECT_EQ(r.count(cdfg::UnitClass::kMem), 2);
  EXPECT_EQ(r.count(cdfg::UnitClass::kBranch), 2);
  EXPECT_FALSE(r.is_unlimited());
  EXPECT_TRUE(ResourceSet::unlimited().is_unlimited());
  EXPECT_FALSE(ResourceSet::unlimited().is_limited(cdfg::UnitClass::kAlu));
  EXPECT_NE(r.to_string().find("alu=4"), std::string::npos);
}

}  // namespace
}  // namespace lwm::sched
