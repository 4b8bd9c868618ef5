#include "wm/reg_constraints.h"

#include <gtest/gtest.h>

#include "dfglib/synth.h"
#include "sched/list_sched.h"

#include "pick_root.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "unrelated-key"}; }

struct Fixture {
  Graph g;
  sched::Schedule s;
  std::vector<regbind::Lifetime> lifetimes;
};

Fixture make_fixture(std::uint64_t seed = 81) {
  Fixture f{lwm::dfglib::make_dsp_design("reg_wm", 14, 160, seed), {}, {}};
  f.s = sched::list_schedule(f.g);
  f.lifetimes = regbind::compute_lifetimes(f.g, f.s);
  return f;
}

RegWmOptions reg_options() {
  RegWmOptions opts;
  opts.domain.tau = 6;
  opts.m = 4;
  opts.min_pairs = 3;  // weak marks false-positive on regular designs
  return opts;
}

TEST(RegWmTest, PlansCompatiblePairs) {
  const Fixture f = make_fixture();
  const auto marks =
      plan_reg_watermarks(f.g, f.lifetimes, alice(), 3, reg_options());
  ASSERT_FALSE(marks.empty());
  // Every constrained pair is genuinely compatible.
  std::unordered_map<NodeId, const regbind::Lifetime*> lt;
  for (const auto& l : f.lifetimes) lt[l.producer] = &l;
  for (const auto& wm : marks) {
    for (const auto& c : wm.constraints) {
      ASSERT_TRUE(lt.count(c.u) != 0);
      ASSERT_TRUE(lt.count(c.v) != 0);
      EXPECT_FALSE(lt.at(c.u)->overlaps(*lt.at(c.v)));
      EXPECT_EQ(wm.subtree[static_cast<std::size_t>(c.u_pos)], c.u);
      EXPECT_EQ(wm.subtree[static_cast<std::size_t>(c.v_pos)], c.v);
    }
  }
}

TEST(RegWmTest, DeterministicPerSignature) {
  const Fixture f = make_fixture();
  const auto a = plan_reg_watermarks(f.g, f.lifetimes, alice(), 2, reg_options());
  const auto b = plan_reg_watermarks(f.g, f.lifetimes, alice(), 2, reg_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].root, b[i].root);
    ASSERT_EQ(a[i].constraints.size(), b[i].constraints.size());
    for (std::size_t j = 0; j < a[i].constraints.size(); ++j) {
      EXPECT_EQ(a[i].constraints[j].u, b[i].constraints[j].u);
      EXPECT_EQ(a[i].constraints[j].v, b[i].constraints[j].v);
    }
  }
}

TEST(RegWmTest, ConstrainedBindingStaysLegal) {
  const Fixture f = make_fixture();
  const auto marks =
      plan_reg_watermarks(f.g, f.lifetimes, alice(), 3, reg_options());
  ASSERT_FALSE(marks.empty());
  const auto cons = to_binding_constraints(marks);
  const auto binding = regbind::left_edge_binding(f.lifetimes, cons);
  ASSERT_TRUE(binding.has_value());
  EXPECT_TRUE(regbind::verify_binding(f.lifetimes, *binding, cons).ok);
}

TEST(RegWmTest, RegisterOverheadIsBounded) {
  const Fixture f = make_fixture();
  const auto free_binding = regbind::left_edge_binding(f.lifetimes);
  ASSERT_TRUE(free_binding.has_value());
  const auto marks =
      plan_reg_watermarks(f.g, f.lifetimes, alice(), 4, reg_options());
  const auto marked_binding = regbind::left_edge_binding(
      f.lifetimes, to_binding_constraints(marks));
  ASSERT_TRUE(marked_binding.has_value());
  EXPECT_GE(marked_binding->register_count, free_binding->register_count)
      << "forced sharing cannot beat the unconstrained optimum";
  EXPECT_LE(marked_binding->register_count, free_binding->register_count + 4)
      << "a handful of share pairs should cost at most a few registers";
}

TEST(RegWmTest, DetectionRoundTrip) {
  const Fixture f = make_fixture();
  const auto marks =
      plan_reg_watermarks(f.g, f.lifetimes, alice(), 3, reg_options());
  ASSERT_FALSE(marks.empty());
  const auto binding = regbind::left_edge_binding(
      f.lifetimes, to_binding_constraints(marks));
  ASSERT_TRUE(binding.has_value());

  for (const auto& wm : marks) {
    const RegRecord rec = RegRecord::from(wm, f.g);
    const RegDetectionReport report =
        detect_reg_watermark(f.g, f.lifetimes, *binding, alice(), rec);
    EXPECT_TRUE(report.detected()) << "root " << f.g.node(wm.root).name;
  }
}

TEST(RegWmTest, ForeignSignatureRejected) {
  const Fixture f = make_fixture();
  const auto marks =
      plan_reg_watermarks(f.g, f.lifetimes, alice(), 3, reg_options());
  ASSERT_FALSE(marks.empty());
  const auto binding = regbind::left_edge_binding(
      f.lifetimes, to_binding_constraints(marks));
  ASSERT_TRUE(binding.has_value());
  int found = 0;
  for (const auto& wm : marks) {
    const RegRecord rec = RegRecord::from(wm, f.g);
    found += detect_reg_watermark(f.g, f.lifetimes, *binding, eve(), rec).detected();
  }
  EXPECT_EQ(found, 0);
}

TEST(RegWmTest, UnwatermarkedBindingFailsDetection) {
  const Fixture f = make_fixture();
  const auto marks =
      plan_reg_watermarks(f.g, f.lifetimes, alice(), 3, reg_options());
  ASSERT_FALSE(marks.empty());
  const auto free_binding = regbind::left_edge_binding(f.lifetimes);
  ASSERT_TRUE(free_binding.has_value());
  int found = 0;
  for (const auto& wm : marks) {
    const RegRecord rec = RegRecord::from(wm, f.g);
    found += detect_reg_watermark(f.g, f.lifetimes, *free_binding, alice(), rec).detected();
  }
  EXPECT_LT(found, static_cast<int>(marks.size()))
      << "the free binder should not reproduce every forced pair";
}

TEST(RegWmTest, PcIsNegativeAndScalesWithPairs) {
  const Fixture f = make_fixture();
  const auto one = plan_reg_watermarks(f.g, f.lifetimes, alice(), 1, reg_options());
  const auto many = plan_reg_watermarks(f.g, f.lifetimes, alice(), 4, reg_options());
  ASSERT_FALSE(one.empty());
  ASSERT_GT(many.size(), one.size());
  const double pc_one = log10_reg_pc(f.g, f.lifetimes, one);
  const double pc_many = log10_reg_pc(f.g, f.lifetimes, many);
  EXPECT_LT(pc_one, 0.0);
  EXPECT_LT(pc_many, pc_one);
}

TEST(RegWmTest, BadParametersThrow) {
  const Fixture f = make_fixture();
  RegWmOptions opts = reg_options();
  opts.m = 0;
  crypto::Bitstream roots = alice().stream("roots");
  const NodeId root = pick_root(f.g, roots);
  EXPECT_THROW((void)plan_reg_watermark(f.g, f.lifetimes, root, alice(), opts),
               std::invalid_argument);
}

TEST(RegWmTest, GraphWithoutOperationsThrows) {
  Graph g;
  g.add_edge(g.add_node(cdfg::OpKind::kInput, "x"),
             g.add_node(cdfg::OpKind::kOutput, "y"));
  const std::vector<regbind::Lifetime> none;
  EXPECT_THROW((void)plan_reg_watermarks(g, none, alice(), 1, reg_options()),
               std::invalid_argument);
  // No draw, no throw.
  EXPECT_TRUE(plan_reg_watermarks(g, none, alice(), 0, reg_options()).empty());
}

}  // namespace
}  // namespace lwm::wm
