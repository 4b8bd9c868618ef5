#include "vliw/vliw_sched.h"

#include <gtest/gtest.h>

#include "cdfg/builder.h"
#include "dfglib/iir4.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"

namespace lwm::vliw {
namespace {

using cdfg::Builder;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

Graph wide_adds(int n) {
  Builder b("wide");
  const NodeId in = b.input("in");
  for (int i = 0; i < n; ++i) {
    b.output("o" + std::to_string(i),
             b.op(OpKind::kAdd, "a" + std::to_string(i), {in, in}));
  }
  return std::move(b).build();
}

TEST(VliwTest, IssueWidthLimitsParallelism) {
  // 8 independent adds, 4 ALUs: two full cycles.
  const VliwResult r = vliw_schedule(wide_adds(8), Machine::paper_machine());
  EXPECT_EQ(r.cycles, 2);
  EXPECT_EQ(r.issued_ops, 8);
  // Four instructions per cycle.
  EXPECT_DOUBLE_EQ(static_cast<double>(r.issued_ops) / r.cycles, 4.0);
}

TEST(VliwTest, UnitClassLimitsBindBeforeIssueWidth) {
  // 4 independent loads, machine has 4 slots but only 2 memory units.
  Builder b("loads");
  const NodeId in = b.input("in");
  for (int i = 0; i < 4; ++i) {
    const NodeId l = b.op(OpKind::kLoad, "l" + std::to_string(i), {in});
    b.output("o" + std::to_string(i), l);
  }
  const Graph g = std::move(b).build();
  const VliwResult r = vliw_schedule(g, Machine::paper_machine());
  // 2 loads/cycle, each with load_delay=2 latency: issue at 0 and 1,
  // last completes at 1 + 2 = 3.
  EXPECT_EQ(r.cycles, 3);
}

TEST(VliwTest, LoadUseLatencyStallsConsumers) {
  Builder b("loaduse");
  const NodeId in = b.input("in");
  const NodeId l = b.op(OpKind::kLoad, "l", {in});
  const NodeId a = b.op(OpKind::kAdd, "a", {l, l});
  b.output("o", a);
  const Graph g = std::move(b).build();
  Machine m = Machine::paper_machine();
  m.load_delay = 3;
  const VliwResult r = vliw_schedule(g, m);
  EXPECT_EQ(r.schedule.start_of(g.find("a")), 3);
  EXPECT_EQ(r.cycles, 4);
}

TEST(VliwTest, SerialChainBoundByDependences) {
  Builder b("serial");
  const NodeId in = b.input("in");
  NodeId prev = b.op(OpKind::kAdd, "a0", {in, in});
  for (int i = 1; i < 10; ++i) {
    prev = b.op(OpKind::kAdd, "a" + std::to_string(i), {prev});
  }
  b.output("o", prev);
  const Graph g = std::move(b).build();
  const VliwResult r = vliw_schedule(g, Machine::paper_machine());
  EXPECT_EQ(r.cycles, 10) << "ILP cannot beat the dependence chain";
}

TEST(VliwTest, ScheduleIsPrecedenceLegal) {
  const Graph g = lwm::dfglib::make_mediabench_app({"GSM", 802});
  const VliwResult r = vliw_schedule(g, Machine::paper_machine());
  EXPECT_EQ(r.issued_ops, static_cast<long long>(g.operation_count()));
  // Spot-check precedence with the schedule verifier (ignore the
  // load-delay refinement, which only lengthens gaps).
  for (cdfg::EdgeId e : g.edge_ids()) {
    const cdfg::Edge& ed = g.edge(e);
    if (!cdfg::is_executable(g.node(ed.src).kind) ||
        !cdfg::is_executable(g.node(ed.dst).kind)) {
      continue;
    }
    EXPECT_LT(r.schedule.start_of(ed.src), r.schedule.start_of(ed.dst) + 1);
  }
}

TEST(VliwTest, WiderMachineNeverSlower) {
  const Graph g = lwm::dfglib::make_mediabench_app({"epic", 872});
  Machine narrow = Machine::paper_machine();
  narrow.issue_width = 2;
  Machine wide = Machine::paper_machine();
  wide.issue_width = 8;
  EXPECT_LE(vliw_schedule(g, wide).cycles, vliw_schedule(g, narrow).cycles);
}

TEST(VliwTest, BadIssueWidthRejected) {
  Machine m;
  m.issue_width = 0;
  EXPECT_THROW((void)vliw_schedule(wide_adds(2), m), std::invalid_argument);
}

TEST(VliwTest, WatchdogBoundSurvivesHugeLoadDelay) {
  // Regression: the no-progress watchdog bound used to be computed in
  // int — total_ops * (load_delay + 2) wraps negative already for a few
  // thousand ops with a huge load delay, making the watchdog throw on a
  // perfectly fine schedule.  The design below has no loads at all, so
  // the schedule itself stays short; only the (clamped, 64-bit) bound
  // sees the big multiplier.
  lwm::dfglib::OpMix alu_only;
  alu_only.alu = 1;
  alu_only.mul = 0;
  alu_only.mem = 0;  // no loads: the schedule itself must stay short
  alu_only.branch = 0;
  const Graph g = lwm::dfglib::make_layered_dag("wd", 5000, 8, alu_only, 99);
  Machine m = Machine::paper_machine();
  m.load_delay = 500'000'000;
  const VliwResult r = vliw_schedule(g, m);
  EXPECT_EQ(r.issued_ops, static_cast<long long>(g.operation_count()));
  EXPECT_GT(r.cycles, 0);
  EXPECT_LT(r.cycles, 100'000);
}

}  // namespace
}  // namespace lwm::vliw
