#include <gtest/gtest.h>

#include <set>

#include "detect_oracle.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "sched/list_sched.h"
#include "wm/detector.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "not-alice"}; }

struct Fixture {
  Graph graph;
  std::vector<SchedRecord> records;
  sched::Schedule schedule;
};

Fixture make_fixture() {
  Fixture f{lwm::dfglib::make_dsp_design("batch", 14, 220, 501), {}, {}};
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(f.graph, alice(), 6, opts);
  EXPECT_GE(marks.size(), 3u);
  for (const auto& m : marks) {
    f.records.push_back(SchedRecord::from(m, f.graph));
  }
  f.schedule = sched::list_schedule(f.graph);
  f.graph.strip_temporal_edges();
  return f;
}

TEST(BatchDetectTest, AgreesWithPerRecordDetection) {
  const Fixture f = make_fixture();
  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, alice(), f.records);
  ASSERT_EQ(batch.size(), f.records.size());
  for (std::size_t i = 0; i < f.records.size(); ++i) {
    const SchedDetectionReport single =
        detect_sched_watermark(f.graph, f.schedule, alice(), f.records[i]);
    EXPECT_EQ(batch[i].detected(), single.detected()) << "record " << i;
    ASSERT_EQ(batch[i].hits.size(), single.hits.size()) << "record " << i;
    for (std::size_t h = 0; h < single.hits.size(); ++h) {
      EXPECT_EQ(batch[i].hits[h].root, single.hits[h].root);
      EXPECT_EQ(batch[i].hits[h].satisfied, single.hits[h].satisfied);
      EXPECT_EQ(batch[i].hits[h].total, single.hits[h].total);
    }
    EXPECT_EQ(batch[i].roots_scanned, single.roots_scanned);
  }
}

TEST(BatchDetectTest, MixedDomainKeysGroupCorrectly) {
  Fixture f = make_fixture();
  // Add a record with a different key: it must be carved separately.
  Graph g2 = lwm::dfglib::make_dsp_design("batch", 14, 220, 501);
  SchedWmOptions opts;
  opts.domain.tau = 7;  // different key
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto extra = embed_local_watermarks(g2, alice(), 1, opts);
  ASSERT_FALSE(extra.empty());
  // Note: this extra mark was embedded in a *separate* copy, so its
  // constraints are not satisfied by f.schedule — it must not detect.
  f.records.push_back(SchedRecord::from(extra.front(), g2));

  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, alice(), f.records);
  ASSERT_EQ(batch.size(), f.records.size());
  for (std::size_t i = 0; i + 1 < f.records.size(); ++i) {
    EXPECT_TRUE(batch[i].detected()) << "record " << i;
  }
}

TEST(BatchDetectTest, ForeignSignatureFindsNothing) {
  const Fixture f = make_fixture();
  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, eve(), f.records);
  for (const auto& report : batch) {
    EXPECT_FALSE(report.detected());
  }
}

TEST(BatchDetectTest, EmptyArchive) {
  const Fixture f = make_fixture();
  const auto batch = detect_sched_watermarks(f.graph, f.schedule, alice(), {});
  EXPECT_TRUE(batch.empty());
}

/// A mark embedded with another domain key in a separate copy of the
/// fixture design: a second key group whose constraints f.schedule need
/// not honor.
SchedRecord foreign_key_record() {
  Graph g = lwm::dfglib::make_dsp_design("batch", 14, 220, 501);
  SchedWmOptions opts;
  opts.domain.tau = 7;
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(g, alice(), 1, opts);
  EXPECT_FALSE(marks.empty());
  return SchedRecord::from(marks.front(), g);
}

/// The fixture's archive, a second key group, and two malformed copies
/// of the first record: one with a pair past the subtree, one with a
/// negative pair.
std::vector<SchedRecord> mixed_archive(const Fixture& f) {
  std::vector<SchedRecord> records = f.records;
  records.push_back(foreign_key_record());
  SchedRecord past = f.records.front();
  past.positions.emplace_back(static_cast<int>(past.subtree_ops.size()), 0);
  records.push_back(past);
  SchedRecord negative = f.records.front();
  negative.positions.emplace_back(0, -1);
  records.push_back(negative);
  return records;
}

void expect_matches_oracle(const SchedDetectionReport& want,
                           const SchedDetectionReport& got,
                           const std::string& label) {
  EXPECT_EQ(got.roots_scanned, want.roots_scanned) << label;
  EXPECT_EQ(got.best_root, want.best_root) << label;
  ASSERT_EQ(got.hits.size(), want.hits.size()) << label;
  for (std::size_t h = 0; h < want.hits.size(); ++h) {
    EXPECT_EQ(got.hits[h].root, want.hits[h].root) << label;
    EXPECT_EQ(got.hits[h].satisfied, want.hits[h].satisfied) << label;
    EXPECT_EQ(got.hits[h].total, want.hits[h].total) << label;
  }
}

TEST(BatchDetectTest, MatchesBruteForceOracle) {
  const Fixture f = make_fixture();
  const std::vector<SchedRecord> records = mixed_archive(f);
  for (const crypto::Signature& sig : {alice(), eve()}) {
    const auto batch =
        detect_sched_watermarks(f.graph, f.schedule, sig, records);
    ASSERT_EQ(batch.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_matches_oracle(
          oracle::detect(f.graph, f.schedule, sig, records[i]), batch[i],
          sig.owner() + " record " + std::to_string(i));
    }
  }
}

TEST(BatchDetectTest, MalformedRecordsNeverHit) {
  const Fixture f = make_fixture();
  const std::vector<SchedRecord> records = mixed_archive(f);
  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, alice(), records);
  ASSERT_TRUE(batch.front().detected()) << "the well-formed original hits";
  for (std::size_t i = records.size() - 2; i < records.size(); ++i) {
    EXPECT_FALSE(batch[i].detected()) << "record " << i;
    EXPECT_FALSE(batch[i].best_root.valid()) << "record " << i;
    EXPECT_FALSE(
        detect_sched_watermark(f.graph, f.schedule, alice(), records[i])
            .detected())
        << "record " << i;
  }
}

TEST(BatchDetectTest, PrefilterSkipsCountedPerRootAndKeyGroup) {
#if LWM_OBS_ENABLED
  // Oracle count: a (root, key group) pair is skipped when no record of
  // the group ends in the root's operation (the root sorts last).  The
  // two key groups here differ only in tau.
  const Fixture f = make_fixture();
  std::vector<SchedRecord> records = f.records;
  records.push_back(foreign_key_record());
  std::uint64_t expected = 0;
  for (const cdfg::NodeId n : f.graph.nodes()) {
    if (!cdfg::is_executable(f.graph.node(n).kind)) continue;
    const int fid = cdfg::functional_id(f.graph.node(n).kind);
    std::set<int> keys;
    std::set<int> matched;
    for (const SchedRecord& r : records) {
      keys.insert(r.domain.tau);
      if (r.subtree_ops.back() == fid) matched.insert(r.domain.tau);
    }
    expected += keys.size() - matched.size();
  }
  ASSERT_GT(expected, 0u);

  obs::Counter& skips =
      obs::Registry::instance().counter("wm/detect_prefilter_skips");
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    const std::uint64_t before = skips.total();
    (void)detect_sched_watermarks(f.graph, f.schedule, alice(), records, p);
    EXPECT_EQ(skips.total() - before, expected) << (p ? "pool" : "serial");
  }
#else
  GTEST_SKIP() << "counting needs LWM_OBS=ON";
#endif
}

}  // namespace
}  // namespace lwm::wm
