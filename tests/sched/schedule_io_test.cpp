#include "sched/schedule_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"

namespace lwm::sched {
namespace {

using cdfg::Graph;

TEST(ScheduleIoTest, RoundTripExact) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const Schedule s = list_schedule(g);
  const std::string text = schedule_to_text(g, s);
  const Schedule back = schedule_from_text(g, text);
  for (cdfg::NodeId n : g.node_ids()) {
    EXPECT_EQ(back.is_scheduled(n), s.is_scheduled(n)) << g.node(n).name;
    if (s.is_scheduled(n)) {
      EXPECT_EQ(back.start_of(n), s.start_of(n)) << g.node(n).name;
    }
  }
  EXPECT_EQ(schedule_to_text(g, back), text);
}

TEST(ScheduleIoTest, SurvivesGraphReserialization) {
  // The name-keyed format must rebase onto a re-parsed graph.
  const Graph g = lwm::dfglib::iir4_parallel();
  const Schedule s = list_schedule(g);
  const std::string sched_text = schedule_to_text(g, s);
  const Graph h = cdfg::from_text(cdfg::to_text(g));
  const Schedule rebased = schedule_from_text(h, sched_text);
  EXPECT_TRUE(verify_schedule(h, rebased).ok);
  EXPECT_EQ(rebased.length(h), s.length(g));
}

TEST(ScheduleIoTest, MalformedInputRejected) {
  const Graph g = lwm::dfglib::iir4_parallel();
  EXPECT_THROW((void)schedule_from_text(g, ""), std::runtime_error);
  EXPECT_THROW((void)schedule_from_text(g, "at A1 0\n"), std::runtime_error)
      << "missing header";
  EXPECT_THROW((void)schedule_from_text(g, "schedule x\nat nope 0\n"),
               std::runtime_error)
      << "unknown node";
  EXPECT_THROW((void)schedule_from_text(g, "schedule x\nat A1\n"),
               std::runtime_error)
      << "missing step";
  EXPECT_THROW((void)schedule_from_text(g, "schedule x\nfrobnicate\n"),
               std::runtime_error);
}

TEST(ScheduleIoTest, CommentsAndPartialSchedulesOk) {
  const Graph g = lwm::dfglib::iir4_parallel();
  const Schedule s = schedule_from_text(g,
                                        "schedule iir\n"
                                        "# only two ops pinned\n"
                                        "at A1 3\n"
                                        "at C1 0\n");
  EXPECT_EQ(s.start_of(g.find("A1")), 3);
  EXPECT_EQ(s.start_of(g.find("C1")), 0);
  EXPECT_FALSE(s.is_scheduled(g.find("A9")));
}

TEST(ScheduleIoTest, DuplicateNameResolvesToFirstLiveNode) {
  Graph g("dup");
  const cdfg::NodeId first = g.add_node(cdfg::OpKind::kAdd, "x");
  const cdfg::NodeId second = g.add_node(cdfg::OpKind::kAdd, "x");
  const Schedule s = schedule_from_text(g, "schedule dup\nat x 4\n");
  EXPECT_EQ(s.start_of(first), 4);
  EXPECT_FALSE(s.is_scheduled(second));
  g.remove_node(first);
  EXPECT_EQ(schedule_from_text(g, "schedule dup\nat x 2\n").start_of(second), 2);
}

/// A design of `ops` operations and the text of its ASAP schedule.
struct AsapCase {
  Graph graph;
  std::string text;
};

AsapCase asap_case(int ops) {
  dfglib::MegaConfig cfg;
  cfg.operations = ops;
  cfg.seed = 3;
  AsapCase c{dfglib::make_mega_design(cfg), {}};
  const cdfg::TimingInfo timing = cdfg::compute_timing(c.graph);
  Schedule asap(c.graph);
  for (const cdfg::NodeId n : c.graph.nodes()) {
    asap.set_start(n, timing.asap[n.value]);
  }
  c.text = schedule_to_text(c.graph, asap);
  return c;
}

double parse_seconds(const AsapCase& c) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto parsed = parse_schedule(c.graph, c.text);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(parsed.ok());
  return std::chrono::duration<double>(t1 - t0).count();
}

TEST(ScheduleIoTest, ParseScalesLinearlyInDesignSize) {
  // 4x the operations: a linear parse takes ~4x as long (~5x measured,
  // the larger index falls out of cache), one name scan per line (the
  // old Graph::find) ~16x.  Each attempt takes the minimum of three
  // interleaved runs per size; up to three attempts absorb a scheduler
  // hiccup on a loaded machine, which a quadratic parse never passes.
  const AsapCase small = asap_case(8'000);
  const AsapCase large = asap_case(32'000);
  double ratio = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    double t_small = 1e300;
    double t_large = 1e300;
    for (int run = 0; run < 3; ++run) {
      t_small = std::min(t_small, parse_seconds(small));
      t_large = std::min(t_large, parse_seconds(large));
    }
    ratio = t_large / t_small;
    if (ratio < 8.0) break;
  }
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_LT(ratio, 8.0);
}

}  // namespace
}  // namespace lwm::sched
