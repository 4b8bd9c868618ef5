// Parameterized property sweeps over randomized graphs: the invariants
// that must hold for every design, not just the hand-built fixtures.
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "cdfg/validate.h"
#include "dfglib/synth.h"
#include "sched/enumerate.h"
#include "sched/list_sched.h"
#include "tmatch/cover.h"
#include "vliw/vliw_sched.h"
#include "cdfg/normalize.h"
#include "hls/datapath.h"
#include "regbind/interference.h"
#include "wm/attack.h"
#include "wm/domain.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

#include "../wm/pick_root.h"

namespace lwm {
namespace {

using cdfg::EdgeFilter;
using cdfg::Graph;
using cdfg::NodeId;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

class RandomDagProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph make() const {
    return dfglib::make_layered_dag("p" + std::to_string(GetParam()),
                                    120 + static_cast<int>(GetParam() % 80), 6,
                                    {}, GetParam());
  }
};

TEST_P(RandomDagProperties, TimingInvariants) {
  const Graph g = make();
  const cdfg::TimingInfo t = cdfg::compute_timing(g);
  for (const NodeId n : g.node_ids()) {
    ASSERT_LE(t.asap[n.value], t.alap[n.value]) << g.node(n).name;
    ASSERT_GE(t.asap[n.value], 0);
    ASSERT_LE(t.laxity(n), t.critical_path);
    ASSERT_GE(t.laxity(n), g.node(n).delay)
        << "every node lies on a path at least as long as itself";
  }
}

TEST_P(RandomDagProperties, SchedulersProduceVerifiableSchedules) {
  const Graph g = make();
  const sched::Schedule list = sched::list_schedule(g);
  EXPECT_TRUE(sched::verify_schedule(g, list).ok);
  EXPECT_EQ(list.length(g), cdfg::critical_path_length(g))
      << "unlimited list scheduling is ASAP";

  sched::ListScheduleOptions constrained;
  constrained.resources = sched::ResourceSet::vliw4();
  const sched::Schedule rc = sched::list_schedule(g, constrained);
  EXPECT_TRUE(sched::verify_schedule(g, rc, EdgeFilter::all(),
                                     constrained.resources)
                  .ok);
  EXPECT_GE(rc.length(g), list.length(g));
}

TEST_P(RandomDagProperties, SerializationRoundTrip) {
  const Graph g = make();
  const Graph h = cdfg::parse_cdfg(cdfg::to_text(g)).value();
  EXPECT_EQ(cdfg::to_text(h), cdfg::to_text(g));
  EXPECT_EQ(cdfg::critical_path_length(h), cdfg::critical_path_length(g));
}

TEST_P(RandomDagProperties, VliwRespectsDependences) {
  const Graph g = make();
  const vliw::VliwResult r = vliw::vliw_schedule(g, vliw::Machine::paper_machine());
  for (const cdfg::EdgeId e : g.edge_ids()) {
    const cdfg::Edge& ed = g.edge(e);
    if (!cdfg::is_executable(g.node(ed.src).kind) ||
        !cdfg::is_executable(g.node(ed.dst).kind)) {
      continue;
    }
    ASSERT_LT(r.schedule.start_of(ed.src), r.schedule.start_of(ed.dst) + 1);
  }
  // Cycles bounded below by ops / issue width.
  EXPECT_GE(r.cycles, static_cast<int>(g.operation_count()) / 4);
}

TEST_P(RandomDagProperties, DomainSelectionIsStablePerSignature) {
  const Graph g = make();
  crypto::Bitstream roots = alice().stream("roots");
  const NodeId root = wm::pick_root(g, roots);
  wm::DomainKey key;
  key.tau = 4;
  const wm::Domain a = wm::select_domain(g, root, alice(), key);
  const wm::Domain b = wm::select_domain(g, root, alice(), key);
  EXPECT_EQ(a.selected, b.selected);
  // Selection is always inside the cone and includes the root.
  EXPECT_FALSE(a.selected.empty());
}

TEST_P(RandomDagProperties, EmbeddedWatermarkKeepsGraphSchedulable) {
  Graph g = make();
  wm::SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(g, alice(), 2, opts, 200);
  // Whether or not a watermark fits this dag, the graph must stay valid.
  EXPECT_TRUE(cdfg::validate(g).empty());
  const sched::Schedule s = sched::list_schedule(g);
  EXPECT_TRUE(sched::verify_schedule(g, s, EdgeFilter::all()).ok);
  for (const auto& m : marks) {
    for (const auto& c : m.constraints) {
      EXPECT_LE(s.start_of(c.src) + g.node(c.src).delay, s.start_of(c.dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

class DspDesignProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph make() const {
    const int cp = 8 + static_cast<int>(GetParam() % 10);
    const int ops = cp * 4;
    return dfglib::make_dsp_design("dsp" + std::to_string(GetParam()), cp, ops,
                                   GetParam());
  }
};

TEST_P(DspDesignProperties, CoverIsExactPartition) {
  const Graph g = make();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const tmatch::Cover cover = tmatch::greedy_cover(g, lib);
  std::size_t covered = 0;
  for (const auto& m : cover.matches) covered += m.nodes.size();
  EXPECT_EQ(covered, g.operation_count());
}

TEST_P(DspDesignProperties, AllocationMeetsBudget) {
  const Graph g = make();
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  const tmatch::MappedDesign d =
      tmatch::build_mapped_design(g, tmatch::greedy_cover(g, lib));
  const int cp = cdfg::critical_path_length(d.macro);
  for (const int factor : {1, 2, 3}) {
    const tmatch::ModuleAllocation alloc =
        tmatch::allocate_modules(d, lib, factor * cp);
    EXPECT_LE(alloc.latency, factor * cp);
    EXPECT_GT(alloc.total(), 0);
  }
}

TEST_P(DspDesignProperties, PsiRatioIsAProbability) {
  const Graph g = make();
  // Pick two taps with overlapping windows if available.
  const cdfg::TimingInfo t =
      cdfg::compute_timing(g, -1, EdgeFilter::specification());
  NodeId a, b;
  for (const NodeId n : g.node_ids()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    if (t.slack(n) < 2) continue;
    if (!a.valid()) {
      a = n;
    } else if (!b.valid() && t.windows_overlap(a, n) && n != a &&
               !cdfg::reaches(g, a, n) && !cdfg::reaches(g, n, a)) {
      b = n;
    }
  }
  if (!a.valid() || !b.valid()) GTEST_SKIP() << "no slack pair in this design";
  const std::vector<NodeId> subset = {a, b};
  const sched::ExtraPrecedence edge[] = {{a, b}};
  const std::uint64_t psi_n = sched::count_schedules(g, t, subset).count;
  const std::uint64_t psi_w = sched::count_schedules(g, t, subset, edge).count;
  ASSERT_GT(psi_n, 0u);
  EXPECT_LE(psi_w, psi_n);
  EXPECT_GT(psi_w, 0u);
}

TEST_P(DspDesignProperties, RegisterBindingInvariants) {
  const Graph g = make();
  const sched::Schedule s = sched::list_schedule(g);
  const auto lifetimes = regbind::compute_lifetimes(g, s);
  const auto binding = regbind::left_edge_binding(lifetimes);
  ASSERT_TRUE(binding.has_value());
  // LEFT-EDGE is optimal: register count equals the clique number of the
  // interval interference graph, which equals max-live.
  EXPECT_EQ(binding->register_count, regbind::max_live(lifetimes));
  EXPECT_TRUE(regbind::verify_binding(lifetimes, *binding).ok);
  // DSATUR on the interference graph can never beat it.
  const auto ig = regbind::build_interference_graph(lifetimes);
  const color::Coloring c = color::dsatur_coloring(ig.graph);
  EXPECT_GE(c.colors_used, binding->register_count);
}

TEST_P(DspDesignProperties, DatapathSynthesisInvariants) {
  const Graph g = make();
  const hls::Datapath dp = hls::synthesize_datapath(g);
  EXPECT_LE(dp.latency, cdfg::critical_path_length(g));
  EXPECT_GT(dp.total_units(), 0);
  EXPECT_EQ(dp.registers, dp.binding.register_count);
  const auto lifetimes = regbind::compute_lifetimes(g, dp.schedule);
  EXPECT_TRUE(regbind::verify_binding(lifetimes, dp.binding).ok);
}

TEST_P(DspDesignProperties, DecoyInsertionThenNormalizationIsIdentity) {
  // Structural property behind bench_robustness: insert transparent
  // decoys, normalize, and the graph must be isomorphic to the original
  // in every quantity the detector consumes.
  Graph g = make();
  sched::Schedule s = sched::list_schedule(
      g, {.resources = sched::ResourceSet::unlimited(),
          .filter = cdfg::EdgeFilter::specification()});
  const std::size_t ops_before = g.operation_count();
  const int cp_before = cdfg::critical_path_length(g);

  const auto decoys = wm::insert_decoys(g, s, 10, GetParam());
  EXPECT_EQ(g.operation_count(), ops_before + decoys.size());
  const int removed = cdfg::normalize_unit_ops(g);
  EXPECT_EQ(removed, static_cast<int>(decoys.size()));
  EXPECT_EQ(g.operation_count(), ops_before);
  EXPECT_EQ(cdfg::critical_path_length(g), cp_before);
  EXPECT_TRUE(cdfg::validate(g).empty());
}

TEST_P(DspDesignProperties, ExactSchedulePcBoundsWindowModel) {
  // On localities small enough to enumerate, the front door's exact P_c
  // and the window model must both be probabilities (log10 <= 0).
  Graph g = make();
  const crypto::Signature sig("prop", "prop-key");
  wm::SchedWmOptions opts;
  opts.domain.tau = 4;
  opts.k = 2;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(g, sig, 1, opts, 300);
  if (marks.empty()) GTEST_SKIP() << "no locality accepted a mark";
  g.strip_temporal_edges();
  const wm::PcEstimate exact = wm::sched_pc_auto(g, marks.front());
  const wm::PcEstimate window = wm::sched_pc_window_model(g, marks);
  EXPECT_LE(exact.log10_pc, 0.0);
  EXPECT_LE(window.log10_pc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DspDesignProperties,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u, 106u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lwm
