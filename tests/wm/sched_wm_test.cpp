#include "wm/sched_constraints.h"

#include <gtest/gtest.h>

#include <set>

#include "cdfg/analysis.h"
#include "cdfg/validate.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"

namespace lwm::wm {
namespace {

using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

SchedWmOptions iir_options() {
  SchedWmOptions opts;
  opts.domain.tau = 6;
  // Keep the whole cone (no carving attrition): the IIR is small and the
  // tests need a predictable candidate pool.
  opts.domain.keep_num = 1;
  opts.domain.keep_den = 1;
  opts.k = 3;
  opts.epsilon = 0.3;
  return opts;
}

TEST(SchedWmTest, PlanProducesConstraintsWithPositions) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = plan_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  EXPECT_FALSE(wm->constraints.empty());
  EXPECT_LE(static_cast<int>(wm->constraints.size()), iir_options().k);
  for (const TemporalConstraint& c : wm->constraints) {
    EXPECT_TRUE(g.is_live(c.src));
    EXPECT_TRUE(g.is_live(c.dst));
    EXPECT_NE(c.src, c.dst);
    ASSERT_GE(c.src_pos, 0);
    ASSERT_GE(c.dst_pos, 0);
    ASSERT_LT(c.src_pos, static_cast<int>(wm->subtree.size()));
    ASSERT_LT(c.dst_pos, static_cast<int>(wm->subtree.size()));
    EXPECT_EQ(wm->subtree[static_cast<std::size_t>(c.src_pos)], c.src);
    EXPECT_EQ(wm->subtree[static_cast<std::size_t>(c.dst_pos)], c.dst);
  }
}

TEST(SchedWmTest, PlanIsDeterministic) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const auto a = plan_sched_watermark(g, g.find("A9"), alice(), iir_options());
  const auto b = plan_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(a && b);
  ASSERT_EQ(a->constraints.size(), b->constraints.size());
  for (std::size_t i = 0; i < a->constraints.size(); ++i) {
    EXPECT_EQ(a->constraints[i].src, b->constraints[i].src);
    EXPECT_EQ(a->constraints[i].dst, b->constraints[i].dst);
  }
}

TEST(SchedWmTest, PlanDoesNotMutateGraph) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const std::size_t edges = g.edge_count();
  (void)plan_sched_watermark(g, g.find("A9"), alice(), iir_options());
  EXPECT_EQ(g.edge_count(), edges);
}

TEST(SchedWmTest, EmbedAddsAcyclicTemporalEdges) {
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = embed_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(g.edges_of_kind(EdgeKind::kTemporal).size(), wm->constraints.size());
  // Acyclic with the watermark in place — the scheduler must not break.
  EXPECT_NO_THROW((void)cdfg::topo_order(g, cdfg::EdgeFilter::all()));
  EXPECT_TRUE(cdfg::validate(g).empty());
}

TEST(SchedWmTest, ConstraintsSelectSlackRichNodes) {
  const Graph g = lwm::dfglib::iir4_parallel();
  SchedWmOptions opts = iir_options();
  opts.epsilon = 0.25;
  const auto wm = plan_sched_watermark(g, g.find("A9"), alice(), opts);
  if (!wm) GTEST_SKIP() << "no watermark fits this epsilon on the IIR";
  const cdfg::TimingInfo t =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  const double bound = t.critical_path * (1.0 - opts.epsilon);
  for (const TemporalConstraint& c : wm->constraints) {
    EXPECT_LE(t.laxity(c.src), bound);
    EXPECT_LE(t.laxity(c.dst), bound);
    EXPECT_TRUE(t.windows_overlap(c.src, c.dst));
  }
}

TEST(SchedWmTest, ScheduleSatisfiesEmbeddedConstraints) {
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = embed_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  const sched::Schedule s = sched::list_schedule(g);
  for (const TemporalConstraint& c : wm->constraints) {
    EXPECT_LE(s.start_of(c.src) + g.node(c.src).delay, s.start_of(c.dst));
  }
}

TEST(SchedWmTest, UnusableLocalityReturnsNullopt) {
  // A pure serial chain has zero slack everywhere: nothing qualifies.
  const Graph g = lwm::dfglib::make_dsp_design("serial", 10, 10, 3);
  SchedWmOptions opts;
  opts.domain.tau = 6;
  opts.k = 2;
  opts.epsilon = 0.3;
  const NodeId root = g.find("spine9");
  ASSERT_TRUE(root.valid());
  EXPECT_FALSE(plan_sched_watermark(g, root, alice(), opts).has_value());
}

TEST(SchedWmTest, BadParametersThrow) {
  const Graph g = lwm::dfglib::iir4_parallel();
  SchedWmOptions opts = iir_options();
  opts.k = 0;
  EXPECT_THROW((void)plan_sched_watermark(g, g.find("A9"), alice(), opts),
               std::invalid_argument);
  opts = iir_options();
  opts.epsilon = 0.0;
  EXPECT_THROW((void)plan_sched_watermark(g, g.find("A9"), alice(), opts),
               std::invalid_argument);
}

TEST(SchedWmTest, EmbedManyPicksDistinctRoots) {
  Graph g = lwm::dfglib::make_dsp_design("many", 10, 200, 17);
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(g, alice(), 4, opts);
  EXPECT_GE(marks.size(), 2u);
  std::set<NodeId> roots;
  for (const auto& m : marks) roots.insert(m.root);
  EXPECT_EQ(roots.size(), marks.size());
  EXPECT_TRUE(cdfg::validate(g).empty());
}

TEST(SchedWmTest, MaterializeUnitOpsReplacesTemporalEdges) {
  Graph g = lwm::dfglib::iir4_parallel();
  const auto wm = embed_sched_watermark(g, g.find("A9"), alice(), iir_options());
  ASSERT_TRUE(wm.has_value());
  const std::size_t ops_before = g.operation_count();
  const auto units = materialize_with_unit_ops(g, {*wm});
  EXPECT_EQ(units.size(), wm->constraints.size());
  EXPECT_EQ(g.operation_count(), ops_before + units.size());
  EXPECT_TRUE(g.edges_of_kind(EdgeKind::kTemporal).empty());
  // Unit ops enforce the same precedence through dataflow.
  for (const TemporalConstraint& c : wm->constraints) {
    EXPECT_TRUE(cdfg::reaches(g, c.src, c.dst));
  }
  EXPECT_TRUE(cdfg::validate(g).empty());
}

}  // namespace
}  // namespace lwm::wm
