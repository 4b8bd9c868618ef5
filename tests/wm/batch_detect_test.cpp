#include <gtest/gtest.h>

#include <set>

#include "detect_oracle.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "sched/list_sched.h"
#include "wm/detector.h"
#include "wm/sched_constraints.h"

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

/// Malformed copies of the first record that mixed_archive appends.
constexpr std::size_t kMalformed = 5;

/// The fixture's archive, a second key group, and kMalformed malformed
/// copies of the first record: a pair past the subtree, a negative pair,
/// and an op id of 0, of -1 and past cdfg::kNumOpKinds (each in front of
/// the root op, so the root-op prefilter still lets it through).
std::vector<SchedRecord> mixed_archive(const Fixture& f) {
  std::vector<SchedRecord> records = f.records;
  records.push_back(foreign_key_record());
  SchedRecord past = f.records.front();
  past.positions.emplace_back(static_cast<int>(past.subtree_ops.size()), 0);
  records.push_back(past);
  SchedRecord negative = f.records.front();
  negative.positions.emplace_back(0, -1);
  records.push_back(negative);
  for (const int op : {0, -1, cdfg::kNumOpKinds + 1}) {
    SchedRecord bad_op = f.records.front();
    bad_op.subtree_ops.front() = op;
    records.push_back(bad_op);
  }
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
  for (std::size_t i = records.size() - kMalformed; i < records.size(); ++i) {
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
  // the group may be carved there — it must end in the root's operation
  // (the root sorts last) and its op multiset must fit in the root's
  // cone.  The two key groups here differ only in tau.
  const Fixture f = make_fixture();
  std::vector<SchedRecord> records = f.records;
  records.push_back(foreign_key_record());
  std::uint64_t expected = 0;
  for (const cdfg::NodeId n : f.graph.nodes()) {
    if (!cdfg::is_executable(f.graph.node(n).kind)) continue;
    std::set<int> keys;
    std::set<int> matched;
    for (const SchedRecord& r : records) {
      keys.insert(r.domain.tau);
      if (oracle::may_carve(f.graph, n, r)) matched.insert(r.domain.tau);
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

/// Reports must not depend on the cone memo: none, cold, warm (the same
/// memo again) and a memo at another tau (read by no group), serially and
/// on a 4-lane pool, each against the no-memo serial scan.
void expect_memo_invisible(const Graph& g, const sched::Schedule& schedule,
                           const std::vector<SchedRecord>& records) {
  ASSERT_FALSE(records.empty());
  const int tau = records.front().domain.tau;
  exec::ThreadPool pool(4);
  for (const crypto::Signature& sig : {alice(), eve()}) {
    const auto want = detect_sched_watermarks(g, schedule, sig, records);
    for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
      ConeMemo memo(g.node_capacity(), tau);
      ConeMemo other(g.node_capacity(), tau + 1);
      const std::pair<const char*, ConeMemo*> runs[] = {
          {"none", nullptr}, {"cold", &memo}, {"warm", &memo}, {"other tau", &other}};
      for (const auto& [name, m] : runs) {
        const auto got = detect_sched_watermarks(g, schedule, sig, records, p, m);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          expect_matches_oracle(want[i], got[i],
                                sig.owner() + (p ? " pool " : " serial ") + name +
                                    " record " + std::to_string(i));
        }
      }
    }
  }
}

/// A 3k-op mega design carrying eight default-key (tau 8) marks.
Fixture make_mega_fixture() {
  Fixture f{lwm::dfglib::make_mega_design(lwm::dfglib::MegaConfig{.operations = 3000}),
            {}, {}};
  for (const auto& m : embed_local_watermarks(f.graph, alice(), 8, SchedWmOptions{})) {
    f.records.push_back(SchedRecord::from(m, f.graph));
  }
  EXPECT_GE(f.records.size(), 4u);
  f.schedule = sched::list_schedule(f.graph);
  f.graph.strip_temporal_edges();
  return f;
}

TEST(BatchDetectTest, ConeMemoNeverChangesReports) {
  const Fixture f = make_fixture();
  expect_memo_invisible(f.graph, f.schedule, f.records);
  expect_memo_invisible(f.graph, f.schedule, mixed_archive(f));
  const Fixture mega = make_mega_fixture();
  expect_memo_invisible(mega.graph, mega.schedule, mega.records);
}

TEST(BatchDetectTest, ConeFingerprintsCountMemoMisses) {
#if LWM_OBS_ENABLED
  // A root is fingerprinted once it passes the root-op prefilter: on
  // every scan without a memo, once per root with a cold one, never with
  // a warm one.
  const Fixture f = make_mega_fixture();
  std::uint64_t expected = 0;
  for (const cdfg::NodeId n : f.graph.nodes()) {
    if (!cdfg::is_executable(f.graph.node(n).kind)) continue;
    const int fid = cdfg::functional_id(f.graph.node(n).kind);
    if (std::ranges::any_of(f.records, [fid](const SchedRecord& r) {
          return r.subtree_ops.back() == fid;
        })) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);
  obs::Counter& computed = obs::Registry::instance().counter("wm/cone_fingerprints");
  const auto fingerprints = [&](exec::ThreadPool* p, ConeMemo* m) {
    const std::uint64_t before = computed.total();
    (void)detect_sched_watermarks(f.graph, f.schedule, alice(), f.records, p, m);
    return computed.total() - before;
  };
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    ConeMemo memo(f.graph.node_capacity(), SchedWmOptions{}.domain.tau);
    EXPECT_EQ(fingerprints(p, nullptr), expected);
    EXPECT_EQ(fingerprints(p, &memo), expected);
    EXPECT_EQ(fingerprints(p, &memo), 0u);
  }
#else
  GTEST_SKIP() << "counting needs LWM_OBS=ON";
#endif
}

/// A complete binary add tree of `depth` levels over 2^depth inputs,
/// appended to `g`; returns its root.
cdfg::NodeId add_tree(Graph& g, int depth) {
  std::vector<cdfg::NodeId> level;
  for (int i = 0; i < (1 << depth); ++i) {
    level.push_back(g.add_node(cdfg::OpKind::kInput));
  }
  while (level.size() > 1) {
    std::vector<cdfg::NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const cdfg::NodeId n = g.add_node(cdfg::OpKind::kAdd);
      g.add_edge(level[i], n);
      g.add_edge(level[i + 1], n);
      next.push_back(n);
    }
    level = std::move(next);
  }
  return level.front();
}

/// An 800-op mega design carrying default-key (tau 8) and tau-4 marks,
/// plus a depth-8 add tree whose keep-1/1 record is the whole tree: 255
/// adds and 256 inputs, so both its op counts saturate at 255.
Fixture make_cut_fixture() {
  Fixture f{lwm::dfglib::make_mega_design(lwm::dfglib::MegaConfig{.operations = 800}),
            {}, {}};
  const cdfg::NodeId tree = add_tree(f.graph, 8);
  SchedWmOptions narrow;
  narrow.domain.tau = 4;
  narrow.k = 3;
  for (const SchedWmOptions& opts : {SchedWmOptions{}, narrow}) {
    for (const auto& m : embed_local_watermarks(f.graph, alice(), 4, opts)) {
      f.records.push_back(SchedRecord::from(m, f.graph));
    }
  }
  EXPECT_GE(f.records.size(), 4u);
  f.schedule = sched::list_schedule(f.graph);
  f.graph.strip_temporal_edges();

  SchedRecord whole;
  whole.domain.keep_den = 1;
  const Domain d = oracle::select_domain(f.graph, tree, alice(), whole.domain);
  for (const cdfg::NodeId n : d.selected) {
    whole.subtree_ops.push_back(cdfg::functional_id(f.graph.node(n).kind));
  }
  EXPECT_EQ(whole.subtree_ops.size(), 511u);
  EXPECT_EQ(ConeFingerprint::of_ops(whole.subtree_ops)
                .count[static_cast<std::size_t>(cdfg::functional_id(cdfg::OpKind::kAdd) - 1)],
            ConeFingerprint::kMaxCount);
  whole.positions = {{256, 510}, {384, 510}};  // adds below the tree root
  f.records.push_back(std::move(whole));
  return f;
}

TEST(BatchDetectTest, CutCarvesNeverChangeReports) {
  // Carves cut once T outgrows every candidate record must leave every
  // report equal to the brute-force scan's, which carves every root in
  // full: without and with the resident context, memo and a pool.
  const Fixture f = make_cut_fixture();
  const PlanContext ctx = PlanContext::build(f.graph);
  exec::ThreadPool pool(4);
  for (const crypto::Signature& sig : {alice(), eve()}) {
    std::vector<SchedDetectionReport> want;
    for (const SchedRecord& r : f.records) {
      want.push_back(oracle::detect(f.graph, f.schedule, sig, r));
    }
    ConeMemo memo(f.graph.node_capacity(), SchedWmOptions{}.domain.tau);
    const auto plain = detect_sched_watermarks(f.graph, f.schedule, sig, f.records);
    const auto resident = detect_sched_watermarks(f.graph, f.schedule, sig,
                                                  f.records, &pool, &memo, &ctx);
    ASSERT_EQ(plain.size(), want.size());
    ASSERT_EQ(resident.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::string label = sig.owner() + " record " + std::to_string(i);
      expect_matches_oracle(want[i], plain[i], label);
      expect_matches_oracle(want[i], resident[i], label + " resident");
    }
    if (sig.owner() == "alice") {
      EXPECT_TRUE(plain.back().detected()) << "the saturated record hits";
    }
  }
}

TEST(BatchDetectTest, CutCarvesSaveKeyRows) {
#if LWM_OBS_ENABLED
  // One record: some carve outgrows it, and the cut scan computes fewer
  // C2/C3 rows than the same carves run in full, each ordered when its
  // T has the record's op multiset.
  const Fixture f = make_mega_fixture();
  const SchedRecord& record = f.records.front();
  const ConeFingerprint need = ConeFingerprint::of_ops(record.subtree_ops);
  const FaninView view = FaninView::build(f.graph);
  const crypto::Bitstream carve = alice().stream(DomainKey::kCarveTag);
  CarveScratch uncut;
  for (const cdfg::NodeId n : f.graph.nodes()) {
    if (!cdfg::is_executable(f.graph.node(n).kind) ||
        !oracle::may_carve(f.graph, n, record)) {
      continue;
    }
    gather_cone(view, n, record.domain.tau, uncut);
    if (carve_cone(view, carve, record.domain, uncut) == need) {
      (void)order_carve(uncut);
    }
  }

  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& cut = reg.counter("wm/carves_cut");
  obs::Counter& rows = reg.counter("wm/carve_key_rows");
  const std::uint64_t cut_before = cut.total();
  const std::uint64_t rows_before = rows.total();
  (void)detect_sched_watermarks(f.graph, f.schedule, alice(), {&record, 1});
  EXPECT_GE(cut.total() - cut_before, 1u);
  EXPECT_LT(rows.total() - rows_before, uncut.key_rows);
#else
  GTEST_SKIP() << "counting needs LWM_OBS=ON";
#endif
}

}  // namespace
}  // namespace lwm::wm
