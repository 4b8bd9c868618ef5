#include "wm/records_io.h"

#include <gtest/gtest.h>

#include "dfglib/synth.h"
#include "sched/list_sched.h"

namespace lwm::wm {
namespace {

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

RecordArchive make_archive() {
  cdfg::Graph g = lwm::dfglib::make_dsp_design("rio", 14, 160, 101);
  const sched::Schedule s = sched::list_schedule(g);
  const auto lifetimes = regbind::compute_lifetimes(g, s);

  RecordArchive archive;
  SchedWmOptions sopts;
  sopts.domain.tau = 5;
  sopts.k = 3;
  sopts.epsilon = 0.3;
  for (const auto& m : embed_local_watermarks(g, alice(), 2, sopts)) {
    archive.sched.push_back(SchedRecord::from(m, g));
  }
  RegWmOptions ropts;
  ropts.domain.tau = 5;
  ropts.m = 3;
  for (const auto& m : plan_reg_watermarks(g, lifetimes, alice(), 2, ropts)) {
    archive.reg.push_back(RegRecord::from(m, g));
  }
  return archive;
}

TEST(RecordsIoTest, RoundTripIsExact) {
  const RecordArchive a = make_archive();
  ASSERT_FALSE(a.sched.empty());
  ASSERT_FALSE(a.reg.empty());
  const std::string text = to_text(a);
  const RecordArchive b = parse_records(text).value();

  ASSERT_EQ(b.sched.size(), a.sched.size());
  for (std::size_t i = 0; i < a.sched.size(); ++i) {
    EXPECT_EQ(b.sched[i].domain.tau, a.sched[i].domain.tau);
    EXPECT_EQ(b.sched[i].domain.keep_num, a.sched[i].domain.keep_num);
    EXPECT_EQ(b.sched[i].domain.keep_den, a.sched[i].domain.keep_den);
    EXPECT_EQ(b.sched[i].positions, a.sched[i].positions);
    EXPECT_EQ(b.sched[i].subtree_ops, a.sched[i].subtree_ops);
  }
  ASSERT_EQ(b.reg.size(), a.reg.size());
  for (std::size_t i = 0; i < a.reg.size(); ++i) {
    EXPECT_EQ(b.reg[i].m, a.reg[i].m);
    EXPECT_EQ(b.reg[i].positions, a.reg[i].positions);
    EXPECT_EQ(b.reg[i].subtree_ops, a.reg[i].subtree_ops);
  }
  EXPECT_EQ(to_text(b), text) << "serialization is a fixed point";
}

TEST(RecordsIoTest, ReloadedRecordsStillDetect) {
  cdfg::Graph g = lwm::dfglib::make_dsp_design("rio2", 14, 160, 102);
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(g, alice(), 2, opts);
  ASSERT_FALSE(marks.empty());
  RecordArchive archive;
  for (const auto& m : marks) archive.sched.push_back(SchedRecord::from(m, g));
  const sched::Schedule s = sched::list_schedule(g);
  g.strip_temporal_edges();

  const RecordArchive reloaded = parse_records(to_text(archive)).value();
  for (const SchedRecord& rec : reloaded.sched) {
    EXPECT_TRUE(detect_sched_watermark(g, s, alice(), rec).detected());
  }
}

TEST(RecordsIoTest, EmptyArchiveRoundTrips) {
  const RecordArchive empty;
  const RecordArchive back = parse_records(to_text(empty)).value();
  EXPECT_TRUE(back.sched.empty());
  EXPECT_TRUE(back.reg.empty());
}

TEST(RecordsIoTest, CommentsIgnored) {
  const RecordArchive a = parse_records(
      "lwm-records v1\n"
      "# archive for project X\n"
      "sched tau=5 keep=1/2 pairs=1\n"
      "pos 2 4\n"
      "ops 4 4 6 1\n").value();
  ASSERT_EQ(a.sched.size(), 1u);
  EXPECT_EQ(a.sched[0].domain.tau, 5);
  EXPECT_EQ(a.sched[0].positions[0], (std::pair<int, int>{2, 4}));
  EXPECT_EQ(a.sched[0].subtree_ops.size(), 4u);
}

TEST(RecordsIoTest, MalformedInputRejectedWithLineNumbers) {
  EXPECT_FALSE(parse_records("").ok());
  EXPECT_FALSE(parse_records("wrong header\n").ok());
  // pos before any record.
  EXPECT_FALSE(parse_records("lwm-records v1\npos 1 2\n").ok());
  // pair-count mismatch.
  EXPECT_FALSE(parse_records("lwm-records v1\n"
                             "sched tau=5 keep=1/2 pairs=2\n"
                             "pos 1 2\n"
                             "ops 1 2 3\n")
                   .ok());
  // missing ops.
  EXPECT_FALSE(parse_records("lwm-records v1\n"
                             "sched tau=5 keep=1/2 pairs=0\n")
                   .ok());
  // reg without m.
  EXPECT_FALSE(parse_records("lwm-records v1\n"
                             "reg tau=5 keep=1/2 pairs=0\nops 1\n")
                   .ok());
  // garbage numbers.
  const auto r = parse_records("lwm-records v1\nsched tau=x keep=1/2 pairs=0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().to_string().find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace lwm::wm
