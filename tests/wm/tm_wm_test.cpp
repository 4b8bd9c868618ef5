#include "wm/tm_constraints.h"

#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "another-author-key"}; }

TmWmOptions tm_options(int z = 2) {
  TmWmOptions opts;
  opts.z = z;
  opts.epsilon = 0.3;
  return opts;
}

TEST(TmWmTest, PlansRequestedMatchings) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto wm = plan_tm_watermark(g, lib, alice(), tm_options(2));
  ASSERT_TRUE(wm.has_value());
  EXPECT_LE(static_cast<int>(wm->enforced.size()), 2);
  EXPECT_GE(static_cast<int>(wm->enforced.size()), 1);
  EXPECT_FALSE(wm->ppos.empty());
}

TEST(TmWmTest, Deterministic) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto a = plan_tm_watermark(g, lib, alice(), tm_options());
  const auto b = plan_tm_watermark(g, lib, alice(), tm_options());
  ASSERT_TRUE(a && b);
  ASSERT_EQ(a->enforced.size(), b->enforced.size());
  for (std::size_t i = 0; i < a->enforced.size(); ++i) {
    EXPECT_EQ(a->enforced[i].template_id, b->enforced[i].template_id);
    EXPECT_EQ(a->enforced[i].nodes, b->enforced[i].nodes);
  }
  EXPECT_EQ(a->ppos, b->ppos);
}

TEST(TmWmTest, SignaturesDiverge) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_div", 10, 60, 5);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto a = plan_tm_watermark(g, lib, alice(), tm_options(3));
  const auto b = plan_tm_watermark(g, lib, eve(), tm_options(3));
  ASSERT_TRUE(a && b);
  bool differ = a->enforced.size() != b->enforced.size();
  for (std::size_t i = 0; !differ && i < a->enforced.size(); ++i) {
    differ = a->enforced[i].nodes != b->enforced[i].nodes;
  }
  EXPECT_TRUE(differ);
}

TEST(TmWmTest, EnforcedMatchingsAreDisjoint) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_dis", 10, 60, 6);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto wm = plan_tm_watermark(g, lib, alice(), tm_options(4));
  ASSERT_TRUE(wm.has_value());
  std::unordered_set<NodeId> seen;
  for (const tmatch::Match& m : wm->enforced) {
    for (const NodeId n : m.nodes) {
      EXPECT_TRUE(seen.insert(n).second) << "overlap at " << g.node(n).name;
    }
  }
}

TEST(TmWmTest, EnforcedMatchingsAvoidNearCriticalNodes) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_lax", 10, 60, 7);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmWmOptions opts = tm_options(3);
  const auto wm = plan_tm_watermark(g, lib, alice(), opts);
  ASSERT_TRUE(wm.has_value());
  const cdfg::TimingInfo t =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  const double bound = t.critical_path * (1.0 - opts.epsilon);
  for (const tmatch::Match& m : wm->enforced) {
    for (const NodeId n : m.nodes) {
      EXPECT_LE(t.laxity(n), bound) << g.node(n).name;
    }
  }
}

TEST(TmWmTest, PrefersCompositeModules) {
  // A design with off-critical MAC pairs: composite matchings exist and
  // must be preferred over single-op ones.
  const Graph g = lwm::dfglib::make_dsp_design("tm_mac", 10, 60, 8);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto wm = plan_tm_watermark(g, lib, alice(), tm_options(2));
  ASSERT_TRUE(wm.has_value());
  for (const tmatch::Match& m : wm->enforced) {
    EXPECT_GE(m.size(), 2) << "single-op enforcement carries no information";
  }
}

TEST(TmWmTest, PposIncludeMatchRoots) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto wm = plan_tm_watermark(g, lib, alice(), tm_options(2));
  ASSERT_TRUE(wm.has_value());
  for (const tmatch::Match& m : wm->enforced) {
    EXPECT_TRUE(wm->ppos.count(m.root()) != 0);
  }
}

TEST(TmWmTest, ZeroEnforceableReturnsNullopt) {
  // Serial chain: every node is critical; nothing qualifies.
  const Graph g = lwm::dfglib::make_dsp_design("tm_serial", 10, 10, 4);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  EXPECT_FALSE(plan_tm_watermark(g, lib, alice(), tm_options(2)).has_value());
}

TEST(TmWmTest, BadParametersThrow) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmWmOptions opts = tm_options();
  opts.z = 0;
  EXPECT_THROW((void)plan_tm_watermark(g, lib, alice(), opts),
               std::invalid_argument);
}

TEST(TmWmTest, CoverOptionsCarryEverything) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const auto wm = plan_tm_watermark(g, lib, alice(), tm_options(2));
  ASSERT_TRUE(wm.has_value());
  const tmatch::CoverOptions opts = cover_options(*wm);
  EXPECT_EQ(opts.enforced.size(), wm->enforced.size());
  EXPECT_EQ(opts.ppo, wm->ppos);
}

}  // namespace
}  // namespace lwm::wm
