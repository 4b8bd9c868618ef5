// End-to-end integration: the full Fig. 1 pipeline across modules, plus
// the adversarial scenarios from §I (cut-out partitions, embedded cores).
#include <gtest/gtest.h>

#include "cdfg/serialize.h"
#include "cdfg/subgraph.h"
#include "dfglib/iir4.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"
#include "wm/attack.h"
#include "wm/detector.h"
#include "wm/protocol.h"

namespace lwm {
namespace {

using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "an-unrelated-author-key"}; }

TEST(EndToEnd, MarkScheduleShipDetect) {
  // 1. Author marks the design and synthesizes.
  Graph design = dfglib::make_dsp_design("ip_core", 14, 150, 77);
  wm::SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(design, alice(), 3, opts);
  ASSERT_GE(marks.size(), 2u);
  const sched::Schedule schedule = sched::list_schedule(design);

  // 2. The shipped artifact: stripped spec + schedule, via serialization.
  design.strip_temporal_edges();
  const Graph shipped = cdfg::parse_cdfg(cdfg::to_text(design)).value();

  // 3. Rebase the schedule onto the re-parsed graph by name.
  sched::Schedule shipped_sched(shipped);
  for (const NodeId n : design.node_ids()) {
    if (schedule.is_scheduled(n)) {
      shipped_sched.set_start(shipped.find(design.node(n).name),
                              schedule.start_of(n));
    }
  }

  // 4. Every watermark is detectable in the shipped artifact.
  for (const auto& mark : marks) {
    const auto report = wm::detect_sched_watermark(
        shipped, shipped_sched, alice(), wm::SchedRecord::from(mark, design));
    EXPECT_TRUE(report.detected()) << "watermark at root "
                                   << design.node(mark.root).name;
  }
  // 5. Eve's signature does not reproduce Alice's carve at the roots.
  int eve_hits = 0;
  for (const auto& mark : marks) {
    const auto report = wm::detect_sched_watermark(
        shipped, shipped_sched, eve(), wm::SchedRecord::from(mark, design));
    eve_hits += static_cast<int>(report.hits.size());
  }
  // (Eve may collide on a rare locality; all of them would be absurd.)
  EXPECT_EQ(eve_hits, 0) << "structural gate rejects a foreign signature";
}

TEST(EndToEnd, PartitionTheftStillDetected) {
  Graph design = dfglib::make_dsp_design("ip_core2", 14, 150, 78);
  wm::SchedWmOptions opts;
  opts.domain.tau = 4;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(design, alice(), 4, opts);
  ASSERT_GE(marks.size(), 2u);
  const sched::Schedule schedule = sched::list_schedule(design);
  design.strip_temporal_edges();

  // Thief cuts out half the design around one watermark's root.
  const auto& target = marks.front();
  const auto cone = cdfg::fanin_cone(design, target.root, 8);
  std::vector<NodeId> keep;
  for (const auto& c : cone) keep.push_back(c.node);
  const cdfg::Partition part = cdfg::extract_partition(design, keep);
  sched::Schedule part_sched(part.graph);
  for (const NodeId n : keep) {
    const NodeId pn = part.map.at(n);
    if (cdfg::is_executable(part.graph.node(pn).kind)) {
      part_sched.set_start(pn, schedule.start_of(n));
    }
  }
  const auto report = wm::detect_sched_watermark(
      part.graph, part_sched, alice(), wm::SchedRecord::from(target, design));
  EXPECT_TRUE(report.detected());
}

TEST(EndToEnd, AttackCostVersusDetection) {
  Graph design = dfglib::make_dsp_design("ip_core3", 14, 150, 79);
  wm::SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(design, alice(), 3, opts);
  ASSERT_FALSE(marks.empty());
  const sched::Schedule schedule = sched::list_schedule(design);
  design.strip_temporal_edges();

  // Untouched: all detected.
  int detected = 0;
  for (const auto& m : marks) {
    detected += wm::detect_sched_watermark(design, schedule, alice(),
                                           wm::SchedRecord::from(m, design))
                    .detected();
  }
  EXPECT_EQ(detected, static_cast<int>(marks.size()));

  // Massive perturbation: detection may degrade, but the attacker paid
  // with a solution-wide rewrite.
  const wm::PerturbResult attacked =
      wm::perturb_schedule(design, schedule, 3000, 17);
  EXPECT_GT(attacked.pairs_reordered, 500);
  EXPECT_TRUE(
      sched::verify_schedule(design, attacked.schedule,
                             cdfg::EdgeFilter::specification())
          .ok);
}

TEST(EndToEnd, TmAndSchedWatermarksCoexist) {
  // A design can carry both protocol families simultaneously.
  Graph design = dfglib::make_dsp_design("dual", 12, 160, 80);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();

  wm::TmWmOptions tm_opts;
  tm_opts.z = 2;
  tm_opts.epsilon = 0.3;
  const auto tm_wm = wm::plan_tm_watermark(design, lib, alice(), tm_opts);
  ASSERT_TRUE(tm_wm.has_value());

  wm::SchedWmOptions s_opts;
  s_opts.domain.tau = 5;
  s_opts.k = 2;
  s_opts.epsilon = 0.3;
  const auto s_marks = wm::embed_local_watermarks(design, alice(), 2, s_opts);
  ASSERT_FALSE(s_marks.empty());

  const sched::Schedule schedule = sched::list_schedule(design);
  const tmatch::Cover cover =
      tmatch::greedy_cover(design, lib, wm::cover_options(*tm_wm));
  design.strip_temporal_edges();

  for (const auto& m : s_marks) {
    EXPECT_TRUE(wm::detect_sched_watermark(design, schedule, alice(),
                                           wm::SchedRecord::from(m, design))
                    .detected());
  }
  EXPECT_TRUE(
      wm::detect_tm_watermark(design, cover, lib, alice(), tm_opts).detected());
}

TEST(EndToEnd, MediabenchPipelineProducesTableRow) {
  // One full Table I row end to end: embed, count cycles, estimate P_c.
  const dfglib::MediabenchApp app{"PEGWIT", 658};
  const Graph g = dfglib::make_mediabench_app(app);
  wm::SchedWmOptions opts;
  opts.domain.tau = 8;
  opts.k = 3;
  opts.epsilon = 0.3;
  const auto r =
      wm::run_vliw_protocol(g, alice(), opts, 3, vliw::Machine::paper_machine());
  ASSERT_FALSE(r.marks.empty());
  EXPECT_LT(r.pc.log10_pc, -0.3);
  EXPECT_GE(r.cycle_overhead(), 0.0);
  EXPECT_LT(r.cycle_overhead(), 0.1);
}

}  // namespace
}  // namespace lwm
