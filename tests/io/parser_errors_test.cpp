// Table-driven error-path coverage for all five text parsers: every
// malformed fixture (one per fixed bug, plus truncated/empty inputs)
// must produce a Diagnostic naming the right line — never a crash, an
// unlocated exception, or silent acceptance — and canonical valid text
// must round-trip byte-for-byte.
#include <gtest/gtest.h>

#include <string>

#include "bench_io.h"
#include "cdfg/serialize.h"
#include "sched/schedule_io.h"
#include "tmatch/library_io.h"
#include "wm/records_io.h"

namespace lwm {
namespace {

struct BadInput {
  const char* name;        // fixture label, mirrors tests/fuzz/corpus entries
  const char* text;
  int line;                // expected Diagnostic line (0 = whole input)
  const char* message_part;
};

void expect_diagnostic(const io::Diagnostic& d, const BadInput& c,
                       const char* format) {
  EXPECT_EQ(d.line, c.line) << format << "/" << c.name << ": " << d.to_string();
  EXPECT_NE(d.message.find(c.message_part), std::string::npos)
      << format << "/" << c.name << ": " << d.to_string();
}

// ---------------------------------------------------------------- cdfg

const BadInput kBadCdfg[] = {
    {"empty", "", 0, "missing 'cdfg <name>' header"},
    {"missing-header", "node a add\n", 1, "before 'cdfg <name>' header"},
    {"truncated-header", "cdfg", 1, "missing graph name"},
    {"header-trailing", "cdfg t junk\n", 1, "trailing garbage"},
    {"bug-delay-garbage", "cdfg t\nnode a add bogus\n", 2, "node delay"},
    {"bug-delay-negative", "cdfg t\nnode a add -3\n", 2, "non-negative"},
    {"bug-delay-trailing", "cdfg t\nnode a add 3 junk\n", 2, "trailing garbage"},
    {"unknown-op", "cdfg t\nnode a frob\n", 2, "unknown op 'frob'"},
    {"duplicate-node", "cdfg t\nnode a add\nnode a add\n", 3, "duplicate node"},
    {"truncated-edge", "cdfg t\nnode a add\nedge a", 3, "edge needs"},
    {"unknown-endpoint", "cdfg t\nnode a add\nedge a zz\n", 3, "unknown node 'zz'"},
    {"unknown-edge-kind", "cdfg t\nnode a add\nnode b add\nedge a b sideways\n",
     4, "unknown edge kind"},
    {"unknown-directive", "cdfg t\nwat a b\n", 2, "unknown directive"},
};

TEST(ParserErrorsTest, CdfgDiagnosticsNameTheRightLine) {
  for (const BadInput& c : kBadCdfg) {
    const auto r = cdfg::parse_cdfg(c.text, "bad.cdfg");
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.diag().file, "bad.cdfg");
    expect_diagnostic(r.diag(), c, "cdfg");
  }
}

TEST(ParserErrorsTest, CdfgValidTextRoundTripsUnchanged) {
  const std::string canonical =
      "cdfg valid\n"
      "node in1 input\n"
      "node a add\n"
      "node m mul 3\n"
      "node out1 output\n"
      "edge in1 a\n"
      "edge a m\n"
      "edge m out1 control\n";
  const auto r = cdfg::parse_cdfg(canonical);
  ASSERT_TRUE(r.ok()) << r.diag().to_string();
  EXPECT_EQ(cdfg::to_text(r.value()), canonical);
}

TEST(ParserErrorsTest, CdfgDelaySumPastIntMaxIsRejected) {
  // Each delay fits in int, but a path through both would not: ASAP
  // arithmetic downstream would overflow.
  const auto r = cdfg::parse_cdfg(
      "cdfg t\nnode a add 2147483000\nnode b add 2147483000\nedge a b\n",
      "bad.cdfg");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().file, "bad.cdfg");
  EXPECT_EQ(r.diag().line, 3);
  EXPECT_EQ(r.diag().column, 12);
  EXPECT_NE(r.diag().message.find("total node delay exceeds"),
            std::string::npos)
      << r.diag().to_string();
}

// ------------------------------------------------------------- records

const BadInput kBadRecords[] = {
    {"empty", "", 0, "missing 'lwm-records v1' header"},
    {"bad-header", "wrong header\n", 1, "missing 'lwm-records v1' header"},
    {"bug-stoi-tau", "lwm-records v1\nsched tau=x keep=1/2 pairs=0\nops 1\n", 2,
     "tau must be a positive integer"},
    {"bug-keep-empty-den", "lwm-records v1\nsched tau=6 keep=3/ pairs=0\nops 1\n",
     2, "keep needs unsigned num/den"},
    {"bug-stoi-out-of-range",
     "lwm-records v1\nsched tau=99999999999999999999 keep=1/2 pairs=0\nops 1\n",
     2, "tau must be a positive integer"},
    {"bug-keep-zero-den", "lwm-records v1\nsched tau=6 keep=1/0 pairs=0\nops 1\n",
     2, "keep denominator must be nonzero"},
    {"pos-before-header", "lwm-records v1\npos 1 2\n", 2, "pos before record"},
    {"missing-ops", "lwm-records v1\nsched tau=6 keep=1/2 pairs=1\npos 1 2\n", 3,
     "missing ops line"},
    {"truncated", "lwm-records v1\nsched tau=6 keep=1/2 pairs=2\npos 1 2", 3,
     "expected 2 pos lines, saw 1"},
    {"bug-pos-negative",
     "lwm-records v1\nsched tau=6 keep=1/2 pairs=1\npos -1 2\nops 1 2 3\n", 3,
     "pos must be non-negative"},
    {"pos-garbage", "lwm-records v1\nsched tau=6 keep=1/2 pairs=1\npos 1 2 x\n",
     3, "trailing garbage"},
    {"bug-ops-zero", "lwm-records v1\nsched tau=6 keep=1/2 pairs=0\nops 1 0 3\n",
     3, "ops ids must lie in [1, 18], got 0"},
    {"bug-ops-negative",
     "lwm-records v1\nsched tau=6 keep=1/2 pairs=0\nops -4 2\n", 3,
     "ops ids must lie in [1, 18], got -4"},
    {"bug-ops-past-kinds",
     "lwm-records v1\nsched tau=6 keep=1/2 pairs=0\nops 4 19\n", 3,
     "ops ids must lie in [1, 18], got 19"},
    {"ops-garbage",
     "lwm-records v1\nsched tau=6 keep=1/2 pairs=0\nops 1 zz\n", 3,
     "ops ids must be integers"},
    {"reg-missing-m", "lwm-records v1\nreg tau=6 keep=1/2 pairs=0\nops 1\n", 2,
     "reg record missing m"},
};

TEST(ParserErrorsTest, RecordsDiagnosticsNameTheRightLine) {
  for (const BadInput& c : kBadRecords) {
    const auto r = wm::parse_records(c.text, "bad.lwm");
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.diag().file, "bad.lwm");
    expect_diagnostic(r.diag(), c, "records");
  }
}

TEST(ParserErrorsTest, RecordsValidTextRoundTripsUnchanged) {
  const std::string canonical =
      "lwm-records v1\n"
      "sched tau=6 keep=1/2 pairs=2\n"
      "pos 1 2\n"
      "pos 3 4\n"
      "ops 7 8 9\n"
      "reg tau=4 keep=2/3 m=3 pairs=1\n"
      "pos 5 6\n"
      "ops 1 2\n";
  const auto r = wm::parse_records(canonical);
  ASSERT_TRUE(r.ok()) << r.diag().to_string();
  EXPECT_EQ(wm::to_text(r.value()), canonical);
}

TEST(ParserErrorsTest, RecordsSecondOpsLineIsRejected) {
  const auto r = wm::parse_records(
      "lwm-records v1\nsched tau=2 keep=1/1 pairs=0\nops 1 2\nops 3\n",
      "bad.lwm");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().file, "bad.lwm");
  EXPECT_EQ(r.diag().line, 4);
  EXPECT_EQ(r.diag().column, 1);
  EXPECT_NE(r.diag().message.find("duplicate ops line"), std::string::npos)
      << r.diag().to_string();
}

// ------------------------------------------------------------ schedule

cdfg::Graph schedule_fixture() {
  return cdfg::parse_cdfg(
      "cdfg fix\nnode in1 input\nnode a add\nnode b mul\nnode out1 output\n"
      "edge in1 a\nedge a b\nedge b out1\n").value();
}

const BadInput kBadSchedule[] = {
    {"empty", "", 0, "missing 'schedule' header"},
    {"missing-header", "at a 0\n", 1, "before 'schedule' header"},
    {"unknown-node", "schedule x\nat nope 0\n", 2, "unknown node 'nope'"},
    {"missing-step", "schedule x\nat a\n", 2, "at needs <name> <step>"},
    {"negative-step", "schedule x\nat a -2\n", 2, "non-negative"},
    {"step-garbage", "schedule x\nat a 1x\n", 2, "non-negative"},
    {"trailing-garbage", "schedule x\nat a 1 junk\n", 2, "trailing garbage"},
    {"duplicate-at", "schedule x\nat a 1\nat a 2\n", 3, "scheduled twice"},
    {"unknown-directive", "schedule x\nfrobnicate\n", 2, "unknown directive"},
};

TEST(ParserErrorsTest, ScheduleDiagnosticsNameTheRightLine) {
  const cdfg::Graph g = schedule_fixture();
  for (const BadInput& c : kBadSchedule) {
    const auto r = sched::parse_schedule(g, c.text, "bad.sched");
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.diag().file, "bad.sched");
    expect_diagnostic(r.diag(), c, "schedule");
  }
}

TEST(ParserErrorsTest, ScheduleValidTextRoundTripsUnchanged) {
  const cdfg::Graph g = schedule_fixture();
  const std::string canonical =
      "schedule fix\n"
      "at in1 0\n"
      "at a 1\n"
      "at b 2\n"
      "at out1 4\n";
  const auto r = sched::parse_schedule(g, canonical);
  ASSERT_TRUE(r.ok()) << r.diag().to_string();
  EXPECT_EQ(sched::schedule_to_text(g, r.value()), canonical);
}

// ------------------------------------------------------------- library

const BadInput kBadLibrary[] = {
    {"empty", "", 0, "missing 'templates v1' header"},
    {"bad-header", "wrong\n", 1, "missing 'templates v1' header"},
    {"bad-area", "templates v1\ntemplate t notanumber\n", 2, "area must be"},
    {"negative-area", "templates v1\ntemplate t -1\n", 2, "area must be"},
    {"trailing-garbage", "templates v1\ntemplate t 1.0 junk\n", 2,
     "trailing garbage"},
    {"op-before-template", "templates v1\nop add\n", 2, "op before any template"},
    {"unknown-op-kind", "templates v1\ntemplate t 1.0\nop frob\n", 3,
     "unknown op kind"},
    {"bad-child-token", "templates v1\ntemplate t 1.0\nop add zz\n", 3,
     "child indices must be integers"},
    {"bad-child-index", "templates v1\ntemplate t 1.0\nop add 5\n", 3,
     "bad child index"},
    {"empty-template", "templates v1\ntemplate t 1.0\n", 2, "empty template"},
};

TEST(ParserErrorsTest, LibraryDiagnosticsNameTheRightLine) {
  for (const BadInput& c : kBadLibrary) {
    const auto r = tmatch::parse_library(c.text, "bad.tlib");
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.diag().file, "bad.tlib");
    expect_diagnostic(r.diag(), c, "library");
  }
}

TEST(ParserErrorsTest, LibraryValidTextRoundTripsUnchanged) {
  const std::string canonical =
      "templates v1\n"
      "template mac 1.5\n"
      "op add 1\n"
      "op mul\n"
      "template add2 1\n"
      "op add\n";
  const auto r = tmatch::parse_library(canonical);
  ASSERT_TRUE(r.ok()) << r.diag().to_string();
  EXPECT_EQ(tmatch::library_to_text(r.value()), canonical);
}

// ----------------------------------------------------------- bench CLI

TEST(ParserErrorsTest, BenchArgsRejectTrailingAndGarbageFlags) {
  const auto run = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "bench");
    return bench::try_parse_args(static_cast<int>(argv.size()),
                                 const_cast<char* const*>(argv.data()),
                                 "DEFAULT.json");
  };

  // The seed read argv[argc] (NULL) here.
  auto trailing = run({"--threads"});
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.diag().line, 1);  // argv index
  EXPECT_NE(trailing.diag().message.find("--threads needs a value"),
            std::string::npos);

  // The seed atoi'd these to 0 and silently clamped to 1.
  for (const char* bad : {"abc", "0", "-4", "8x", "99999999"}) {
    auto r = run({"--threads", bad});
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.diag().message.find("--threads needs an integer"),
              std::string::npos)
        << bad;
  }

  ASSERT_FALSE(run({"--json"}).ok());
  ASSERT_FALSE(run({"--trace"}).ok());
  ASSERT_FALSE(run({"--wat"}).ok());

  auto good = run({"--threads", "8", "--smoke", "--json", "out.json"});
  ASSERT_TRUE(good.ok()) << good.diag().to_string();
  EXPECT_EQ(good.value().threads, 8);
  EXPECT_TRUE(good.value().smoke);
  EXPECT_EQ(good.value().json_path, "out.json");
}

TEST(ParserErrorsTest, BenchArgsPassthroughCollectsUnknowns) {
  std::vector<const char*> argv = {"bench", "--benchmark_filter=BM_X",
                                   "--threads", "2"};
  std::vector<std::string> extra;
  auto r = bench::try_parse_args(static_cast<int>(argv.size()),
                                 const_cast<char* const*>(argv.data()),
                                 "D.json", &extra);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().threads, 2);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0], "--benchmark_filter=BM_X");

  // Even in passthrough mode a broken known flag is still an error.
  std::vector<const char*> bad = {"bench", "--threads"};
  std::vector<std::string> sink;
  EXPECT_FALSE(bench::try_parse_args(static_cast<int>(bad.size()),
                                     const_cast<char* const*>(bad.data()),
                                     "D.json", &sink)
                   .ok());
}

}  // namespace
}  // namespace lwm
