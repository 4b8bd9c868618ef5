#include "wm/protocol.h"

#include <gtest/gtest.h>

#include "dfglib/iir4.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

TEST(SchedProtocolTest, EndToEndOnSyntheticDesign) {
  const Graph g = lwm::dfglib::make_dsp_design("proto", 12, 120, 51);
  SchedProtocolConfig cfg;
  cfg.wm.domain.tau = 5;
  cfg.wm.k = 3;
  cfg.wm.epsilon = 0.3;
  cfg.watermark_count = 3;
  const SchedProtocolResult r = run_sched_protocol(g, alice(), cfg);

  ASSERT_FALSE(r.marks.empty());
  // Delivered solution carries no trace of the constraints...
  EXPECT_TRUE(r.solution.edges_of_kind(cdfg::EdgeKind::kTemporal).empty());
  // ...but the schedule still satisfies them.
  for (const SchedWatermark& wm : r.marks) {
    for (const TemporalConstraint& c : wm.constraints) {
      EXPECT_LE(r.schedule.start_of(c.src) + r.solution.node(c.src).delay,
                r.schedule.start_of(c.dst));
    }
  }
  EXPECT_LT(r.pc.log10_pc, 0.0);
  EXPECT_GE(r.latency_marked, r.latency_baseline);
  EXPECT_GE(r.latency_overhead(), 0.0);
}

TEST(SchedProtocolTest, OverheadStaysSmall) {
  // The laxity filter exists to keep the watermark out of the critical
  // path; on a slack-rich design the latency overhead should be tiny.
  const Graph g = lwm::dfglib::make_dsp_design("proto_oh", 16, 200, 53);
  SchedProtocolConfig cfg;
  cfg.wm.domain.tau = 5;
  cfg.wm.k = 2;
  cfg.wm.epsilon = 0.4;
  cfg.watermark_count = 4;
  const SchedProtocolResult r = run_sched_protocol(g, alice(), cfg);
  EXPECT_LE(r.latency_overhead(), 0.25);
}

TEST(VliwProtocolTest, UnitOpsCostCyclesNotCorrectness) {
  const lwm::dfglib::MediabenchApp app{"GSM", 802};
  const Graph g = lwm::dfglib::make_mediabench_app(app);
  SchedWmOptions wm;
  wm.domain.tau = 6;
  wm.k = 4;
  wm.epsilon = 0.3;
  const VliwProtocolResult r =
      run_vliw_protocol(g, alice(), wm, 4, vliw::Machine::paper_machine());
  ASSERT_FALSE(r.marks.empty());
  EXPECT_GE(r.cycles_marked, r.cycles_baseline);
  EXPECT_LT(r.cycle_overhead(), 0.2)
      << "a few unit ops must not blow up a ~800-op trace";
  EXPECT_LT(r.pc.log10_pc, 0.0);
}

TEST(TmProtocolTest, EndToEndModuleOverhead) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_proto", 12, 60, 54);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmProtocolConfig cfg;
  cfg.wm.z = 2;
  cfg.wm.epsilon = 0.3;
  const TmProtocolResult r = run_tm_protocol(g, lib, alice(), cfg);

  EXPECT_FALSE(r.watermark.enforced.empty());
  EXPECT_GT(r.alloc_baseline.total(), 0);
  EXPECT_GT(r.alloc_marked.total(), 0);
  const int base = r.alloc_baseline.total();
  const double module_overhead =
      static_cast<double>(r.alloc_marked.total() - base) / base;
  // Heuristic covering may drift slightly either way.
  EXPECT_GT(module_overhead, -0.5);
  EXPECT_LE(r.pc.log10_pc, 0.0);

  // The enforced matchings are part of the marked cover.
  for (const tmatch::Match& want : r.watermark.enforced) {
    bool found = false;
    for (const tmatch::Match& have : r.cover_marked.matches) {
      if (have.template_id == want.template_id && have.nodes == want.nodes) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(TmProtocolTest, DoubledBudgetShrinksOverhead) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_budget", 12, 60, 55);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmProtocolConfig tight;
  tight.wm.z = 2;
  tight.wm.epsilon = 0.3;
  const TmProtocolResult rt = run_tm_protocol(g, lib, alice(), tight);

  TmProtocolConfig loose = tight;
  loose.budget_steps = 2 * cdfg::critical_path_length(g);
  const TmProtocolResult rl = run_tm_protocol(g, lib, alice(), loose);

  EXPECT_LE(rl.alloc_marked.total(), rt.alloc_marked.total())
      << "more control steps allow more sharing (Table II axis)";
}

TEST(TmProtocolTest, UnmarkableDesignThrows) {
  const Graph g = lwm::dfglib::make_dsp_design("tm_serial2", 8, 8, 56);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  TmProtocolConfig cfg;
  cfg.wm.z = 1;
  EXPECT_THROW((void)run_tm_protocol(g, lib, alice(), cfg), std::runtime_error);
}

}  // namespace
}  // namespace lwm::wm
