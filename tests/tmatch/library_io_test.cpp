#include "tmatch/library_io.h"

#include <gtest/gtest.h>

namespace lwm::tmatch {
namespace {

TEST(LibraryIoTest, StandardRoundTripsExactly) {
  const TemplateLibrary lib = TemplateLibrary::standard();
  const std::string text = library_to_text(lib);
  const TemplateLibrary back = parse_library(text).value();
  ASSERT_EQ(back.size(), lib.size());
  for (int i = 0; i < lib.size(); ++i) {
    EXPECT_EQ(back.at(i).name, lib.at(i).name);
    EXPECT_DOUBLE_EQ(back.at(i).area, lib.at(i).area);
    ASSERT_EQ(back.at(i).ops.size(), lib.at(i).ops.size());
    for (std::size_t o = 0; o < lib.at(i).ops.size(); ++o) {
      EXPECT_EQ(back.at(i).ops[o].kind,
                lib.at(i).ops[o].kind);
      EXPECT_EQ(back.at(i).ops[o].children,
                lib.at(i).ops[o].children);
    }
  }
  EXPECT_EQ(library_to_text(back), text);
}

TEST(LibraryIoTest, HandWrittenLibraryParses) {
  const TemplateLibrary lib = parse_library(
      "templates v1\n"
      "# custom corporate kit\n"
      "template madd3 5.2\n"
      "op add 1 2\n"
      "op mul\n"
      "op mul\n"
      "template inv 0.3\n"
      "op not\n").value();
  ASSERT_EQ(lib.size(), 2);
  EXPECT_EQ(lib.at(0).name, "madd3");
  EXPECT_EQ(lib.at(0).ops.size(), 3u);
  EXPECT_EQ(lib.at(0).ops[0].children, (std::vector<int>{1, 2}));
  EXPECT_EQ(lib.at(1).ops[0].kind, cdfg::OpKind::kNot);
}

TEST(LibraryIoTest, MalformedInputRejected) {
  EXPECT_FALSE(parse_library("").ok());
  EXPECT_FALSE(parse_library("wrong\n").ok());
  EXPECT_FALSE(parse_library("templates v1\nop add\n").ok())
      << "op before template";
  EXPECT_FALSE(parse_library("templates v1\ntemplate t\n").ok())
      << "missing area";
  EXPECT_FALSE(parse_library("templates v1\ntemplate t 1.0\nop frob\n").ok())
      << "unknown kind";
  EXPECT_FALSE(parse_library("templates v1\ntemplate t 1.0\nop add 5\n").ok())
      << "dangling child index (tree validation)";
  EXPECT_FALSE(parse_library("templates v1\ntemplate t 1.0\n").ok())
      << "empty template";
}

}  // namespace
}  // namespace lwm::tmatch
