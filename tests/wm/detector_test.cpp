#include "wm/detector.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cdfg/subgraph.h"
#include "cdfg/validate.h"
#include "detect_oracle.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "a-completely-different-key"}; }

SchedWmOptions wm_options() {
  SchedWmOptions opts;
  opts.domain.tau = 5;
  // Default carving probability (1/2): the carve is signature-dependent,
  // which is what gives detection its discriminative power.
  opts.k = 3;
  opts.min_edges = 2;  // one-edge marks false-positive on regular designs
  opts.epsilon = 0.3;
  return opts;
}

struct MarkedDesign {
  Graph graph;
  SchedWatermark wm;
  SchedRecord record;
  sched::Schedule schedule;
};

MarkedDesign make_marked_design() {
  MarkedDesign d{lwm::dfglib::make_dsp_design("det_core", 12, 120, 61), {}, {}, {}};
  const auto marks = embed_local_watermarks(d.graph, alice(), 1, wm_options());
  EXPECT_FALSE(marks.empty());
  d.wm = marks.front();
  d.record = SchedRecord::from(d.wm, d.graph);
  d.schedule = sched::list_schedule(d.graph);
  d.graph.strip_temporal_edges();  // what ships to the customer
  return d;
}

TEST(DetectorTest, FindsWatermarkInOwnDesign) {
  const MarkedDesign d = make_marked_design();
  const SchedDetectionReport report =
      detect_sched_watermark(d.graph, d.schedule, alice(), d.record);
  EXPECT_TRUE(report.detected());
  bool at_root = false;
  for (const SchedHit& hit : report.hits) {
    if (hit.root == d.wm.root) at_root = true;
  }
  EXPECT_TRUE(at_root) << "the embedding root must be among the hits";
  EXPECT_GT(report.roots_scanned, 0);
}

TEST(DetectorTest, StructuralGateLimitsFalseRoots) {
  // The memorized-subtree fingerprint must reject almost every other
  // candidate root (an ASAP-like schedule satisfies random before-pairs
  // about half the time, so without the gate hits would be everywhere).
  const MarkedDesign d = make_marked_design();
  const SchedDetectionReport report =
      detect_sched_watermark(d.graph, d.schedule, alice(), d.record);
  EXPECT_LE(static_cast<int>(report.hits.size()), 3)
      << "locality fingerprint should pin the root down";
}

TEST(DetectorTest, WrongSignatureFindsNothing) {
  const MarkedDesign d = make_marked_design();
  const SchedDetectionReport report =
      detect_sched_watermark(d.graph, d.schedule, eve(), d.record);
  // Eve's signature carves a different subtree at every root, so the
  // structural gate rejects her everywhere (barring a measure-zero
  // coincidence on this fixed design, where it would still fail the
  // constraint check).
  EXPECT_FALSE(report.detected());
}

TEST(DetectorTest, VerifyAtRootFastPath) {
  const MarkedDesign d = make_marked_design();
  const std::optional<SchedHit> hit =
      oracle::hit_at(d.graph, d.schedule, alice(), d.record, d.wm.root);
  ASSERT_TRUE(hit.has_value()) << "structural gate passes on the true root";
  EXPECT_TRUE(hit->full());
  EXPECT_EQ(hit->total, static_cast<int>(d.wm.constraints.size()));
  const SchedDetectionReport report =
      detect_sched_watermark(d.graph, d.schedule, alice(), d.record);
  EXPECT_TRUE(std::ranges::any_of(report.hits, [&](const SchedHit& h) {
    return h.root == d.wm.root && h.satisfied == hit->satisfied &&
           h.total == hit->total;
  })) << "the scan reports the oracle's hit at the true root";
}

TEST(DetectorTest, UnwatermarkedScheduleFailsVerification) {
  // Schedule the *original* graph (watermark never embedded) and check
  // Alice's records at their true roots: with several multi-edge marks,
  // at least one constraint set must break (a single mark can coincide
  // with small probability; all of them cannot, or the scheme is void).
  Graph g = lwm::dfglib::make_dsp_design("det_core", 12, 120, 61);
  SchedWmOptions opts = wm_options();
  opts.k = 4;
  opts.min_edges = 3;
  Graph marked = g;
  const auto marks = embed_local_watermarks(marked, alice(), 3, opts);
  ASSERT_GE(marks.size(), 2u);
  const sched::Schedule s = sched::list_schedule(
      g, {.resources = sched::ResourceSet::unlimited(),
          .filter = cdfg::EdgeFilter::specification()});
  int broken = 0;
  for (const auto& wm : marks) {
    const SchedHit hit =
        oracle::hit_at(g, s, alice(), SchedRecord::from(wm, marked), wm.root)
            .value_or(SchedHit{wm.root});
    EXPECT_GT(hit.total, 0) << "structural gate passes on the true root";
    if (hit.satisfied < hit.total) ++broken;
  }
  EXPECT_GT(broken, 0)
      << "an unconstrained ASAP schedule should not satisfy every watermark";
}

TEST(DetectorTest, SurvivesPartitionExtraction) {
  const MarkedDesign d = make_marked_design();
  // The adversary cuts out the locality's cone (plus a margin).
  const auto cone = cdfg::fanin_cone(d.graph, d.wm.root, 8);
  std::vector<NodeId> keep;
  for (const auto& c : cone) keep.push_back(c.node);
  const cdfg::Partition part = cdfg::extract_partition(d.graph, keep);

  // The cut core inherits the schedule (same control steps, FSM intact).
  sched::Schedule cut_schedule(part.graph);
  for (const NodeId n : keep) {
    const NodeId pn = part.map.at(n);
    if (cdfg::is_executable(part.graph.node(pn).kind) &&
        d.schedule.is_scheduled(n)) {
      cut_schedule.set_start(pn, d.schedule.start_of(n));
    }
  }
  const SchedDetectionReport report =
      detect_sched_watermark(part.graph, cut_schedule, alice(), d.record);
  EXPECT_TRUE(report.detected())
      << "local watermarks must survive cut-and-resell";
}

TEST(DetectorTest, SurvivesEmbeddingIntoLargerDesign) {
  const MarkedDesign d = make_marked_design();
  // The adversary drops the stolen core into a bigger system.
  Graph host = lwm::dfglib::make_dsp_design("host", 12, 60, 99);
  const cdfg::NodeMap map = embed_graph(host, d.graph, "stolen_");

  // The thief reuses the stolen implementation: core operations keep
  // their original control steps (shifted by the integration offset),
  // host operations get their own schedule.
  sched::Schedule host_sched = sched::list_schedule(host);
  const int offset = 2;
  for (const NodeId n : d.graph.node_ids()) {
    if (d.schedule.is_scheduled(n)) {
      host_sched.set_start(map.at(n), d.schedule.start_of(n) + offset);
    }
  }
  const SchedDetectionReport report =
      detect_sched_watermark(host, host_sched, alice(), d.record);
  EXPECT_TRUE(report.detected())
      << "locality-relative detection must survive embedding";
}

TEST(DetectorTest, SurvivesWholesaleRenaming) {
  // An adversary relabeling every node changes nothing the detector
  // reads: carving, ordering and fingerprints are purely structural.
  MarkedDesign d = make_marked_design();
  int i = 0;
  for (const NodeId n : d.graph.node_ids()) {
    d.graph.rename_node(n, "obf" + std::to_string(i++));
  }
  EXPECT_TRUE(cdfg::validate(d.graph).empty());
  const SchedDetectionReport report =
      detect_sched_watermark(d.graph, d.schedule, alice(), d.record);
  EXPECT_TRUE(report.detected());
}

TEST(DetectorTest, RecordRoundTrip) {
  const MarkedDesign d = make_marked_design();
  EXPECT_EQ(d.record.positions.size(), d.wm.constraints.size());
  EXPECT_EQ(d.record.domain.tau, d.wm.options.domain.tau);
  EXPECT_EQ(d.record.subtree_ops.size(), d.wm.subtree.size());
}

TEST(TmDetectorTest, FindsOwnWatermark) {
  // A design with composite (multi-op) matchings: enforcing them is a
  // real statement (single-op "matchings" appear in any cover).
  const Graph g = lwm::dfglib::make_dsp_design("tm_det", 12, 80, 62);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmWmOptions opts;
  opts.z = 3;
  opts.epsilon = 0.3;
  const auto wm = plan_tm_watermark(g, lib, alice(), opts);
  ASSERT_TRUE(wm.has_value());
  const tmatch::Cover cover = tmatch::greedy_cover(g, lib, cover_options(*wm));
  const TmDetectionReport report =
      detect_tm_watermark(g, cover, lib, alice(), opts);
  EXPECT_TRUE(report.detected());
  EXPECT_EQ(report.found, report.total);
}

TEST(TmDetectorTest, WrongSignatureFailsOnMarkedCover) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_det2", 14, 120, 63);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmWmOptions opts;
  opts.z = 5;
  opts.epsilon = 0.3;
  const auto wm = plan_tm_watermark(g, lib, alice(), opts);
  ASSERT_TRUE(wm.has_value());
  const tmatch::Cover marked = tmatch::greedy_cover(g, lib, cover_options(*wm));
  const TmDetectionReport eve_report =
      detect_tm_watermark(g, marked, lib, eve(), opts);
  EXPECT_FALSE(eve_report.detected())
      << "Eve's re-plan picks different matchings";
}

}  // namespace
}  // namespace lwm::wm
