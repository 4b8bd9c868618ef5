// modulo_test — periodic (modulo) scheduling of marked graphs: MinII
// bounds, II achievement on the dfglib kernels, periodic legality, and
// the loud refusals on malformed (token-free-cyclic) inputs.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "dfglib/kernels.h"
#include "dfglib/iir4.h"
#include "sched/modulo.h"
#include "sched/resources.h"

namespace lwm::sched {
namespace {

using cdfg::EdgeFilter;
using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

// a -> b -> c with a 2-token feedback c -> a; delays 1, 3, 1.
Graph small_loop() {
  Graph g;
  g.set_name("small_loop");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kMul, "b", /*delay=*/3);
  const NodeId c = g.add_node(OpKind::kAdd, "c");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a, EdgeKind::kData, 2);
  return g;
}

TEST(ModuloTest, RecurrenceMinIiMatchesCycleRatio) {
  // Cycle delay sum = 1 + 3 + 1 = 5 over 2 tokens: RecMII = ceil(5/2) = 3.
  const Graph g = small_loop();
  EXPECT_EQ(recurrence_min_ii(g), 3);
  // A DAG (or the token-free skeleton) degenerates to 1.
  EXPECT_EQ(recurrence_min_ii(g, EdgeFilter::all()), 1);
  EXPECT_EQ(recurrence_min_ii(dfglib::make_fir(8)), 1);
}

TEST(ModuloTest, ResourceMinIiCountsOccupancy) {
  Graph g;
  const NodeId m1 = g.add_node(OpKind::kMul, "m1", /*delay=*/3);
  const NodeId m2 = g.add_node(OpKind::kMul, "m2", /*delay=*/3);
  g.add_edge(m1, m2);
  ResourceSet rs = ResourceSet::unlimited();
  rs.set_count(cdfg::UnitClass::kMul, 1);
  // Non-pipelined: each mul occupies its unit for 3 steps -> ceil(6/1).
  EXPECT_EQ(resource_min_ii(g, rs, /*pipelined=*/false), 6);
  // Pipelined: one issue slot each -> 2.
  EXPECT_EQ(resource_min_ii(g, rs, /*pipelined=*/true), 2);
  EXPECT_EQ(resource_min_ii(g, ResourceSet::unlimited()), 1);
}

TEST(ModuloTest, AchievesMinIiOnSmallLoop) {
  const Graph g = small_loop();
  const ModuloResult r = modulo_schedule(g);
  EXPECT_EQ(r.rec_mii, 3);
  EXPECT_EQ(r.min_ii, 3);
  EXPECT_EQ(r.ii, 3) << "unlimited resources must close at RecMII";
  EXPECT_TRUE(r.achieved_min_ii());
  const ScheduleCheck chk = verify_periodic_schedule(g, r.schedule, r.ii);
  EXPECT_TRUE(chk.ok) << (chk.errors.empty() ? "" : chk.errors.front());
}

TEST(ModuloTest, AchievesMinIiOnTokenAnnotatedKernels) {
  // The acceptance-criterion sweep: dfglib kernels closed into marked
  // graphs by a whole-critical-path feedback edge; with unlimited
  // resources the II search must close at MinII = RecMII =
  // ceil(critical_path / tokens).
  struct Case {
    const char* name;
    Graph g;
    int tokens;
  };
  Case cases[] = {
      {"fir16", dfglib::make_fir(16), 1},
      {"fir16_t2", dfglib::make_fir(16), 2},
      {"fft8", dfglib::make_fft(8), 2},
      {"biquad4", dfglib::make_biquad_cascade(4), 3},
      {"iir4", dfglib::iir4_parallel(), 2},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const int cp = cdfg::critical_path_length(c.g);
    (void)dfglib::add_feedback(c.g, c.tokens);
    ASSERT_TRUE(c.g.has_token_edges());
    const int expected_rec = (cp + c.tokens - 1) / c.tokens;
    EXPECT_EQ(recurrence_min_ii(c.g), expected_rec);

    const ModuloResult r = modulo_schedule(c.g);
    EXPECT_EQ(r.min_ii, expected_rec);
    EXPECT_EQ(r.ii, r.min_ii) << "II search must close at MinII";
    const ScheduleCheck chk = verify_periodic_schedule(c.g, r.schedule, r.ii);
    EXPECT_TRUE(chk.ok) << (chk.errors.empty() ? "" : chk.errors.front());
  }
}

TEST(ModuloTest, ResourceConstrainedStillLegal) {
  Graph g = dfglib::make_fir(12);
  (void)dfglib::add_feedback(g, 2);
  ModuloOptions opts;
  opts.resources = ResourceSet::unlimited();
  opts.resources.set_count(cdfg::UnitClass::kMul, 2);
  opts.resources.set_count(cdfg::UnitClass::kAlu, 2);
  const ModuloResult r = modulo_schedule(g, opts);
  EXPECT_GE(r.ii, r.min_ii);
  EXPECT_GE(r.res_mii, 1);
  const ScheduleCheck chk = verify_periodic_schedule(
      g, r.schedule, r.ii, opts.filter, opts.resources, opts.pipelined_units);
  EXPECT_TRUE(chk.ok) << (chk.errors.empty() ? "" : chk.errors.front());
}

TEST(ModuloTest, PipelinedUnitsLowerResMii) {
  Graph g = dfglib::make_fir(12);
  (void)dfglib::add_feedback(g, 2);
  ModuloOptions pipe;
  pipe.resources = ResourceSet::unlimited();
  pipe.resources.set_count(cdfg::UnitClass::kMul, 2);
  pipe.pipelined_units = true;
  ModuloOptions nopipe = pipe;
  nopipe.pipelined_units = false;
  const ModuloResult rp = modulo_schedule(g, pipe);
  const ModuloResult rn = modulo_schedule(g, nopipe);
  EXPECT_LE(rp.res_mii, rn.res_mii);
  EXPECT_TRUE(
      verify_periodic_schedule(g, rp.schedule, rp.ii, pipe.filter,
                               pipe.resources, /*pipelined=*/true)
          .ok);
}

TEST(ModuloTest, PlainDagDegeneratesGracefully) {
  const Graph g = dfglib::make_fir(8);
  const ModuloResult r = modulo_schedule(g);
  EXPECT_EQ(r.rec_mii, 1);
  EXPECT_EQ(r.ii, 1) << "a DAG with unlimited resources pipelines at II=1";
  EXPECT_TRUE(verify_periodic_schedule(g, r.schedule, r.ii).ok);
}

TEST(ModuloTest, TokenFreeCycleRefusedLoudly) {
  Graph g;
  g.set_name("bad_loop");
  const NodeId a = g.add_node(OpKind::kAdd, "a");
  const NodeId b = g.add_node(OpKind::kAdd, "b");
  g.add_edge(a, b);
  g.add_edge(b, a, EdgeKind::kData, 1);
  // Legal marked graph schedules fine...
  EXPECT_NO_THROW((void)modulo_schedule(g));
  // ...but pretending the token edge has no tokens (a filter seeing a
  // raw cyclic relation) must throw, not loop.
  Graph bad;
  bad.set_name("bad_loop");
  const NodeId x = bad.add_node(OpKind::kAdd, "x");
  const NodeId y = bad.add_node(OpKind::kAdd, "y");
  bad.add_edge(x, y);
  bad.add_edge(y, x, EdgeKind::kControl);
  EXPECT_THROW((void)modulo_schedule(bad), std::runtime_error);
}

TEST(ModuloTest, VerifierCatchesBadPeriodicSchedules) {
  const Graph g = small_loop();
  const ModuloResult r = modulo_schedule(g);
  // Violate the loop-carried constraint: delay node 'a' far enough that
  // c -> a (2 tokens) no longer holds at this II.
  Schedule bad = r.schedule;
  for (const NodeId n : g.nodes()) {
    if (g.node(n).name == "c") {
      bad.set_start(n, bad.start_of(n) + 2 * r.ii + 1);
    }
  }
  EXPECT_FALSE(verify_periodic_schedule(g, bad, r.ii).ok);
}

}  // namespace
}  // namespace lwm::sched
