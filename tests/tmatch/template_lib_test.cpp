#include "tmatch/template_lib.h"

#include <gtest/gtest.h>

namespace lwm::tmatch {
namespace {

using cdfg::OpKind;

TEST(TemplateLibTest, StandardContainsComposites) {
  const TemplateLibrary lib = TemplateLibrary::standard();
  bool has_add2 = false;
  bool has_mac = false;
  for (int i = 0; i < lib.size(); ++i) {
    if (lib.at(i).name == "add2") {
      has_add2 = true;
      EXPECT_EQ(lib.at(i).ops.size(), 2u);
      EXPECT_EQ(lib.at(i).ops[0].kind, OpKind::kAdd);
      EXPECT_EQ(lib.at(i).ops[1].kind, OpKind::kAdd);
    }
    if (lib.at(i).name == "mac") has_mac = true;
  }
  EXPECT_TRUE(has_add2);
  EXPECT_TRUE(has_mac);
}

TEST(TemplateLibTest, PrimitiveIsSingleOpOnly) {
  const TemplateLibrary lib = TemplateLibrary::primitive();
  for (int i = 0; i < lib.size(); ++i) {
    EXPECT_EQ(lib.at(i).ops.size(), 1u) << lib.at(i).name;
  }
}

TEST(TemplateLibTest, EmptyTemplateRejected) {
  TemplateLibrary lib;
  EXPECT_THROW(lib.add(Template{"empty", {}, 1.0}), std::invalid_argument);
}

TEST(TemplateLibTest, BadChildIndexRejected) {
  TemplateLibrary lib;
  Template t;
  t.name = "bad";
  t.ops = {TemplateOp{OpKind::kAdd, {5}}, TemplateOp{OpKind::kAdd, {}}};
  EXPECT_THROW(lib.add(t), std::invalid_argument);
}

TEST(TemplateLibTest, SelfReferenceRejected) {
  TemplateLibrary lib;
  Template t;
  t.name = "self";
  t.ops = {TemplateOp{OpKind::kAdd, {0}}};
  EXPECT_THROW(lib.add(t), std::invalid_argument);
}

TEST(TemplateLibTest, DoubleParentRejected) {
  TemplateLibrary lib;
  Template t;
  t.name = "dag_not_tree";
  t.ops = {TemplateOp{OpKind::kAdd, {1, 1}}, TemplateOp{OpKind::kAdd, {}}};
  EXPECT_THROW(lib.add(t), std::invalid_argument);
}

TEST(TemplateLibTest, PreorderEnforced) {
  TemplateLibrary lib;
  Template t;
  t.name = "backref";
  // op1 referencing op... children must follow parents; child <= parent
  // index is rejected.
  t.ops = {TemplateOp{OpKind::kAdd, {}}, TemplateOp{OpKind::kAdd, {1}}};
  EXPECT_THROW(lib.add(t), std::invalid_argument);
}

TEST(TemplateLibTest, ThreeOpTreeAccepted) {
  TemplateLibrary lib;
  Template t;
  t.name = "madd2";  // add(mul, mul)
  t.ops = {TemplateOp{OpKind::kAdd, {1, 2}}, TemplateOp{OpKind::kMul, {}},
           TemplateOp{OpKind::kMul, {}}};
  const int id = lib.add(t);
  EXPECT_EQ(lib.at(id).ops.size(), 3u);
}

}  // namespace
}  // namespace lwm::tmatch
