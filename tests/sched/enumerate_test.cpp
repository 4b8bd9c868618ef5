#include "sched/enumerate.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "dfglib/iir4.h"

namespace lwm::sched {
namespace {

using cdfg::Builder;
using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

// The specification windows count_schedules reads, at `latency` (-1: the
// critical path).
cdfg::TimingInfo spec(const Graph& g, int latency = -1) {
  return cdfg::compute_timing(g, latency, cdfg::EdgeFilter::specification());
}

// Every executable node of `g`.
std::vector<NodeId> ops_of(const Graph& g) {
  std::vector<NodeId> ops;
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  return ops;
}

// Two independent single-op chains: a and b, plus latency slack.
Graph two_free_ops() {
  Builder b("two");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId y = b.op(OpKind::kMul, "b", {in, in});
  b.output("oa", x);
  b.output("ob", y);
  return std::move(b).build();
}

TEST(EnumerateTest, HandCountedTwoOps) {
  const Graph g = two_free_ops();
  // Critical path is 1, so with the default latency both ops sit at 0:
  // exactly one schedule.
  EXPECT_EQ(count_schedules(g, spec(g), ops_of(g)).count, 1u);

  // With latency 3 each op picks any of 3 steps independently: 9.
  EXPECT_EQ(count_schedules(g, spec(g, 3), ops_of(g)).count, 9u);
}

TEST(EnumerateTest, ExtraPrecedenceRestrictsCount) {
  const Graph g = two_free_ops();
  const ExtraPrecedence edge[] = {{g.find("a"), g.find("b")}};
  // a in {0,1,2}, b > a: pairs (0,1),(0,2),(1,2) = 3.
  EXPECT_EQ(count_schedules(g, spec(g, 3), ops_of(g), edge).count, 3u);
}

TEST(EnumerateTest, ChainIsRigidAtCriticalPath) {
  Builder b("chain");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "x", {in, in});
  const NodeId y = b.op(OpKind::kAdd, "y", {x});
  const NodeId z = b.op(OpKind::kAdd, "z", {y});
  b.output("o", z);
  const Graph g = std::move(b).build();
  EXPECT_EQ(count_schedules(g, spec(g), ops_of(g)).count, 1u);
  // One slack step distributes in 4 ways:
  // starts (0,1,2),(0,1,3),(0,2,3),(1,2,3).
  EXPECT_EQ(count_schedules(g, spec(g, 4), ops_of(g)).count, 4u);
}

TEST(EnumerateTest, SubsetCountsUseTransitiveSeparation) {
  Builder b("sep");
  const NodeId in = b.input("in");
  const NodeId x = b.op(OpKind::kAdd, "x", {in, in});
  const NodeId m = b.op(OpKind::kMul, "m", {x});
  const NodeId y = b.op(OpKind::kAdd, "y", {m});
  b.output("o", y);
  const Graph g = std::move(b).build();
  // Subset {x, y} with latency 4: x and y are 2 steps apart through m.
  // x in {0,1}, y in {x+2 .. 3}: (0,2),(0,3),(1,3) = 3.
  const std::vector<NodeId> subset = {g.find("x"), g.find("y")};
  EXPECT_EQ(count_schedules(g, spec(g, 4), subset).count, 3u);
}

TEST(EnumerateTest, UnsatisfiableConstraintsGiveZero) {
  const Graph g = two_free_ops();
  // Serializing a before b needs 2 steps, but the specification's
  // critical path (the default latency bound) is 1.
  const ExtraPrecedence edge[] = {{g.find("a"), g.find("b")}};
  EXPECT_EQ(count_schedules(g, spec(g), ops_of(g), edge).count, 0u);
}

TEST(EnumerateTest, CyclicExtraConstraintsThrow) {
  const Graph g = two_free_ops();
  const ExtraPrecedence edges[] = {{g.find("a"), g.find("b")},
                                   {g.find("b"), g.find("a")}};
  EXPECT_THROW((void)count_schedules(g, spec(g, 3), ops_of(g), edges),
               std::runtime_error);
}

TEST(EnumerateTest, SaturationReported) {
  const Graph g = two_free_ops();
  const EnumerationResult r = count_schedules(g, spec(g, 3), ops_of(g), {}, 5);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.count, 5u);
}

TEST(EnumerateTest, EmptySubsetOfDeadNodeThrows) {
  const Graph g = two_free_ops();
  const std::vector<NodeId> bad = {NodeId{999}};
  EXPECT_THROW((void)count_schedules(g, spec(g), bad), std::out_of_range);
}

TEST(EnumerateTest, ExtraEndpointOutsideSubsetThrows) {
  const Graph g = two_free_ops();
  const std::vector<NodeId> only_a = {g.find("a")};
  const ExtraPrecedence edge[] = {{g.find("a"), g.find("b")}};
  EXPECT_THROW((void)count_schedules(g, spec(g, 3), only_a, edge),
               std::invalid_argument);
}

TEST(EnumerateTest, EmptySubsetHasOneSchedule) {
  // No members, one (empty) schedule: an empty subset is not "every node".
  const Graph g = two_free_ops();
  const EnumerationResult r = count_schedules(g, spec(g, 3), {});
  EXPECT_EQ(r.count, 1u);
  EXPECT_FALSE(r.saturated);
}

TEST(EnumerateTest, SeparatedSpaceCountsWindowsAndSeparations) {
  // The counter's own input: x in [0, 2], y in [0, 3], z in [1, 3] with
  // y >= x + 1 and y >= z (separation 0 from z to y).  By hand:
  // x=0: y in {1,2,3} -> z in {1}, {1,2}, {1,2,3} = 6; x=1: y in {2,3}
  // -> 2 + 3 = 5; x=2: y = 3 -> 3.  Total 14.
  constexpr long long kFree = kNoSeparation;
  const std::vector<long long> lo = {0, 0, 1}, hi = {2, 3, 3};
  const std::vector<long long> sep = {kFree, 1,     kFree,   //
                                      kFree, kFree, kFree,   //
                                      kFree, 0,     kFree};  // z -> y
  EXPECT_EQ(count_separated(lo, hi, sep, 100).count, 14u);
  const EnumerationResult capped = count_separated(lo, hi, sep, 14);
  EXPECT_EQ(capped.count, 14u);
  EXPECT_TRUE(capped.saturated);
  // A positive cycle (x >= y + 1 on top of y >= x + 1) admits nothing.
  std::vector<long long> cyclic = sep;
  cyclic[1 * 3 + 0] = 1;
  EXPECT_EQ(count_separated(lo, hi, cyclic, 100).count, 0u);
}

TEST(PsiTest, MatchesManualRatio) {
  const Graph g = two_free_ops();
  const ExtraPrecedence edge[] = {{g.find("a"), g.find("b")}};
  const EnumerationResult psi_n = count_schedules(g, spec(g, 3), ops_of(g));
  const EnumerationResult psi_w =
      count_schedules(g, spec(g, 3), ops_of(g), edge);
  EXPECT_EQ(psi_n.count, 9u);
  EXPECT_EQ(psi_w.count, 3u);
  EXPECT_FALSE(psi_n.saturated || psi_w.saturated);
}

TEST(PsiTest, IirSubtreeConstraintsShrinkSolutionSpace) {
  // The motivational example's qualitative claim: watermark constraints
  // cut the subtree's schedule count by an order of magnitude.
  const Graph g = lwm::dfglib::iir4_parallel();
  const cdfg::TimingInfo timing = spec(g, cdfg::critical_path_length(g) + 2);
  std::vector<NodeId> subtree;
  for (const char* name : {"C1", "C2", "A1", "A2", "C3", "C4", "A3"}) {
    subtree.push_back(g.find(name));
  }
  const std::uint64_t free_count = count_schedules(g, timing, subtree).count;
  const std::vector<ExtraPrecedence> wm_edges = {
      {g.find("C1"), g.find("C3")},
      {g.find("C2"), g.find("C4")},
  };
  const std::uint64_t marked_count =
      count_schedules(g, timing, subtree, wm_edges).count;
  EXPECT_GT(free_count, 0u);
  EXPECT_GT(marked_count, 0u);
  EXPECT_LT(marked_count * 2, free_count);
}

}  // namespace
}  // namespace lwm::sched
