// Unit tests for the lwm::io trust-boundary primitives: Diagnostic
// rendering, ParseResult, line/token scanning with columns, strict
// numeric conversion, and the size-limited front door.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "io/parse_result.h"
#include "io/source.h"
#include "io/text.h"

namespace lwm::io {
namespace {

TEST(DiagnosticTest, RendersFileLineColumn) {
  const Diagnostic d{"records.lwm", 3, 12, "tau must be a positive integer"};
  EXPECT_EQ(d.to_string(),
            "records.lwm line 3, col 12: tau must be a positive integer");
}

TEST(DiagnosticTest, OmitsZeroPositions) {
  EXPECT_EQ((Diagnostic{"a.cdfg", 0, 0, "missing header"}).to_string(),
            "a.cdfg: missing header");
  EXPECT_EQ((Diagnostic{"a.cdfg", 4, 0, "truncated record"}).to_string(),
            "a.cdfg line 4: truncated record");
  EXPECT_EQ((Diagnostic{"", 1, 1, "m"}).to_string(), "<input> line 1, col 1: m");
}

TEST(ParseResultTest, HoldsValueOrDiagnostic) {
  ParseResult<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  ParseResult<int> bad = Diagnostic{"f", 1, 2, "nope"};
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.diag().line, 1);
  EXPECT_EQ(bad.diag().message, "nope");
}

TEST(LineCursorTest, CountsLinesAndStripsCr) {
  LineCursor c("one\r\ntwo\n\nfour");
  EXPECT_EQ(*c.next(), "one");
  EXPECT_EQ(c.line_number(), 1);
  EXPECT_EQ(*c.next(), "two");
  EXPECT_EQ(*c.next(), "");
  EXPECT_EQ(*c.next(), "four");
  EXPECT_EQ(c.line_number(), 4);
  EXPECT_FALSE(c.next().has_value());
}

TEST(LineCursorTest, EmptyInputHasNoLines) {
  LineCursor c("");
  EXPECT_FALSE(c.next().has_value());
  EXPECT_EQ(c.line_number(), 0);
}

TEST(LineLexerTest, TokensCarryOneBasedColumns) {
  LineLexer lx("  at  node7\t42 ");
  const auto t1 = lx.next();
  ASSERT_TRUE(t1);
  EXPECT_EQ(t1->text, "at");
  EXPECT_EQ(t1->column, 3);
  const auto t2 = lx.next();
  EXPECT_EQ(t2->text, "node7");
  EXPECT_EQ(t2->column, 7);
  EXPECT_FALSE(lx.at_end());
  const auto t3 = lx.next();
  EXPECT_EQ(t3->text, "42");
  EXPECT_EQ(t3->column, 13);
  EXPECT_TRUE(lx.at_end());
  EXPECT_FALSE(lx.next().has_value());
}

TEST(StrictNumbersTest, WholeTokenOrNothing) {
  EXPECT_EQ(to_int("42"), 42);
  EXPECT_EQ(to_int("-7"), -7);
  EXPECT_FALSE(to_int("3junk"));
  EXPECT_FALSE(to_int("1/2"));
  EXPECT_FALSE(to_int(""));
  EXPECT_FALSE(to_int("+5"));
  EXPECT_FALSE(to_int(" 5"));
  EXPECT_FALSE(to_int("99999999999999999999"));  // seed threw out_of_range

  EXPECT_EQ(to_u32("0"), 0u);
  EXPECT_FALSE(to_u32("-1"));  // stoul would have wrapped this
  EXPECT_FALSE(to_u32("4294967296"));

  EXPECT_EQ(to_double("1.5"), 1.5);
  EXPECT_FALSE(to_double("1.5x"));
  EXPECT_FALSE(to_double("inf"));
  EXPECT_FALSE(to_double("nan"));
}

TEST(SourceTest, ReadFileEnforcesSizeLimit) {
  const std::string path = testing::TempDir() + "/lwm_io_size_limit_test.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(1024, 'x');
  }
  const auto ok = read_file(path, ReadLimits{1024});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), std::string(1024, 'x'));

  const auto refused = read_file(path, ReadLimits{100});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.diag().file, path);
  EXPECT_NE(refused.diag().message.find("100-byte whole-file cap"),
            std::string::npos);
  // The refusal must teach the fix: name the cap's knob and the
  // stream form.
  EXPECT_NE(refused.diag().message.find("max_bytes"), std::string::npos);
  EXPECT_NE(refused.diag().message.find("io::LineCursor(in"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SourceTest, ReadFileReportsOpenFailureAndRoundTrips) {
  const auto missing = read_file("/nonexistent/lwm/artifact.cdfg");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.diag().file, "/nonexistent/lwm/artifact.cdfg");
  EXPECT_EQ(missing.diag().message, "cannot open file");

  const std::string path = testing::TempDir() + "/lwm_io_source_test.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "line1\nline2\n";
  }
  const auto back = read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "line1\nline2\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lwm::io
