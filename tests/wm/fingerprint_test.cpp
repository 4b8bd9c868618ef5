#include "wm/fingerprint.h"

#include <gtest/gtest.h>

#include "dfglib/synth.h"
#include "sched/list_sched.h"
#include "wm/attack.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature vendor() { return {"acme", "acme-vendor-master-key"}; }

SchedWmOptions fp_options() {
  SchedWmOptions opts;
  opts.domain.tau = 8;
  opts.k = 5;
  opts.min_edges = 3;  // strong marks: isomorphic localities abound in
                       // regular DSP code, so constraint count is what
                       // separates recipients
  opts.epsilon = 0.3;
  return opts;
}

Graph base_design() { return lwm::dfglib::make_dsp_design("fp_core", 14, 200, 91); }

TEST(SignatureDeriveTest, ChildrenAreIndependentAndReproducible) {
  const crypto::Signature v = vendor();
  const crypto::Signature a1 = v.derive("customer-a");
  const crypto::Signature a2 = v.derive("customer-a");
  const crypto::Signature b = v.derive("customer-b");
  EXPECT_EQ(a1.fingerprint(), a2.fingerprint());
  EXPECT_NE(a1.fingerprint(), b.fingerprint());
  EXPECT_NE(a1.fingerprint(), v.fingerprint());
  EXPECT_EQ(a1.owner(), "acme/customer-a");
  // Derivation domain separation: derive("x") != key-extended tag usage.
  crypto::Bitstream s1 = a1.stream("t");
  crypto::Bitstream s2 = b.stream("t");
  bool diverged = false;
  for (int i = 0; i < 256 && !diverged; ++i) {
    diverged = s1.next_bit() != s2.next_bit();
  }
  EXPECT_TRUE(diverged);
}

TEST(FingerprintTest, CopiesShareStructureButNotSchedules) {
  const Graph g = base_design();
  const FingerprintedCopy a = fingerprint_copy(g, vendor(), "customer-a", fp_options());
  const FingerprintedCopy b = fingerprint_copy(g, vendor(), "customer-b", fp_options());
  // Shipped structure is the original in both cases.
  EXPECT_EQ(a.design.node_count(), g.node_count());
  EXPECT_EQ(b.design.node_count(), g.node_count());
  EXPECT_TRUE(a.design.edges_of_kind(cdfg::EdgeKind::kTemporal).empty());
  // Copy-specific constraints push schedules apart.
  EXPECT_NE(a.schedule.starts(), b.schedule.starts());
  EXPECT_FALSE(a.copy_records.empty());
  EXPECT_FALSE(a.ownership_records.empty());
}

TEST(FingerprintTest, IdentifiesTheLeakingRecipient) {
  const Graph g = base_design();
  std::vector<FingerprintedCopy> copies;
  for (const char* r : {"customer-a", "customer-b", "customer-c"}) {
    copies.push_back(fingerprint_copy(g, vendor(), r, fp_options()));
  }
  // customer-b's copy leaks.
  const FingerprintedCopy& leaked = copies[1];
  const LeakReport report =
      identify_leak(leaked.design, leaked.schedule, vendor(), copies);

  EXPECT_TRUE(report.ownership_established);
  ASSERT_EQ(report.scores.size(), 3u);
  const LeakScore* leaker = report.likely_leaker();
  ASSERT_NE(leaker, nullptr);
  EXPECT_EQ(leaker->recipient, "customer-b");
  EXPECT_EQ(leaker->marks_found, leaker->marks_total);
  // The true leaker dominates every other candidate.
  for (const LeakScore& s : report.scores) {
    if (s.recipient != "customer-b") {
      EXPECT_LT(s.ratio(), leaker->ratio()) << s.recipient;
    }
  }
}

TEST(FingerprintTest, OwnershipSurvivesEvenWhenCopyMarksAreAmbiguous) {
  const Graph g = base_design();
  std::vector<FingerprintedCopy> copies;
  for (const char* r : {"x", "y"}) {
    copies.push_back(fingerprint_copy(g, vendor(), r, fp_options()));
  }
  const LeakReport report =
      identify_leak(copies[0].design, copies[0].schedule, vendor(), copies);
  EXPECT_TRUE(report.ownership_established)
      << "vendor marks are recipient-independent";
}

TEST(DecoyAttackTest, PreservesScheduleQualityAndLegality) {
  Graph g = base_design();
  sched::Schedule s = sched::list_schedule(
      g, {.resources = sched::ResourceSet::unlimited(),
          .filter = cdfg::EdgeFilter::specification()});
  const int len_before = s.length(g);
  const auto decoys = insert_decoys(g, s, 20, 7);
  EXPECT_FALSE(decoys.empty());
  EXPECT_EQ(s.length(g), len_before) << "decoys slot into existing gaps";
  EXPECT_TRUE(
      sched::verify_schedule(g, s, cdfg::EdgeFilter::specification()).ok);
}

TEST(DecoyAttackTest, DegradesButRarelyDestroysDetection) {
  Graph g = base_design();
  SchedWmOptions opts = fp_options();
  const auto marks = embed_local_watermarks(g, vendor(), 5, opts);
  ASSERT_GE(marks.size(), 3u);
  std::vector<SchedRecord> records;
  for (const auto& m : marks) records.push_back(SchedRecord::from(m, g));
  sched::Schedule s = sched::list_schedule(g);
  g.strip_temporal_edges();

  int before = 0;
  for (const auto& rec : records) {
    before += detect_sched_watermark(g, s, vendor(), rec).detected();
  }
  EXPECT_EQ(before, static_cast<int>(records.size()));

  (void)insert_decoys(g, s, 15, 11);
  int after = 0;
  for (const auto& rec : records) {
    after += detect_sched_watermark(g, s, vendor(), rec).detected();
  }
  // Some localities are hit by decoys; with several independent local
  // watermarks at least one should survive a light insertion attack.
  EXPECT_GE(after, 1);
  EXPECT_LE(after, before);
}

}  // namespace
}  // namespace lwm::wm
