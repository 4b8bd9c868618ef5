#include "cdfg/delay_model.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "cdfg/serialize.h"
#include "cdfg/validate.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"

namespace lwm::cdfg {
namespace {

Graph chain3() {
  Builder b("chain3");
  const NodeId in = b.input("in");
  const NodeId a = b.op(OpKind::kAdd, "a", {in, in});
  const NodeId m = b.op(OpKind::kMul, "m", {a, a});
  const NodeId c = b.op(OpKind::kAdd, "c", {m, in});
  b.output("out", c);
  return std::move(b).build();
}

TEST(DelayModelTest, DefaultConstructedIsExact) {
  const DelayModel m;
  EXPECT_TRUE(m.is_exact());
  EXPECT_EQ(m.describe(), "exact");
  for (int i = 0; i < kNumOpKinds; ++i) {
    const auto k = static_cast<OpKind>(i);
    const DelayBounds b = m.bounds(k, /*fanout=*/100);
    EXPECT_TRUE(b.exact()) << op_name(k);
    EXPECT_EQ(b.max, default_delay(k)) << op_name(k);
  }
}

TEST(DelayModelTest, ExactAnnotateIsIdentity) {
  Graph g = dfglib::iir4_parallel();
  const std::string before = to_text(g);
  EXPECT_EQ(DelayModel::exact().annotate(g), 0);
  EXPECT_EQ(to_text(g), before);
  EXPECT_FALSE(g.has_bounded_delays());
}

TEST(DelayModelTest, DynoBoundsAreOrderedAndWiden) {
  const DelayModel m = DelayModel::dyno(16);
  EXPECT_FALSE(m.is_exact());
  EXPECT_EQ(m.describe(), "table(bits=16,fo>4)");
  for (int i = 0; i < kNumOpKinds; ++i) {
    const auto k = static_cast<OpKind>(i);
    const DelayBounds b = m.bounds(k);
    EXPECT_LE(0, b.min) << op_name(k);
    EXPECT_LE(b.min, b.max) << op_name(k);
  }
  // ilog2(16) = 4: carry ops gain [2, 4], tree ops [4, 8] on the base.
  EXPECT_EQ(m.bounds(OpKind::kAdd), (DelayBounds{3, 5}));
  EXPECT_EQ(m.bounds(OpKind::kMul), (DelayBounds{6, 10}));
  // Logic stays exact and width-independent.
  EXPECT_EQ(m.bounds(OpKind::kAnd), (DelayBounds{1, 1}));
  // Pseudo-ops never gain width terms.
  EXPECT_EQ(m.bounds(OpKind::kInput), (DelayBounds{0, 0}));
}

TEST(DelayModelTest, FanoutTermHitsWorstCaseOnly) {
  const DelayModel m = DelayModel::dyno(16);
  const DelayBounds narrow = m.bounds(OpKind::kAdd, /*fanout=*/4);
  const DelayBounds wide = m.bounds(OpKind::kAdd, /*fanout=*/8);
  EXPECT_EQ(narrow, m.bounds(OpKind::kAdd));  // at the threshold: no term
  EXPECT_EQ(wide.min, narrow.min);
  EXPECT_EQ(wide.max, narrow.max + 3);  // ilog2(8)
}

TEST(DelayModelTest, SettersValidate) {
  DelayModel m;
  EXPECT_THROW(m.set_base(OpKind::kAdd, -1, 2), std::invalid_argument);
  EXPECT_THROW(m.set_base(OpKind::kAdd, 3, 2), std::invalid_argument);
  EXPECT_THROW(m.set_bit_width(-1), std::invalid_argument);
  EXPECT_THROW(m.set_fanout_threshold(-1), std::invalid_argument);
  EXPECT_THROW(DelayModel::dyno(0), std::invalid_argument);
  m.set_base(OpKind::kAdd, 1, 4);
  EXPECT_FALSE(m.is_exact());  // overridden table is no longer provably exact
}

TEST(DelayModelTest, AnnotateWritesBoundsAndReportsChanges) {
  Graph g = chain3();
  const DelayModel m = DelayModel::dyno(16);
  const int changed = m.annotate(g);
  EXPECT_GT(changed, 0);
  EXPECT_TRUE(g.has_bounded_delays());
  for (NodeId n : g.node_ids()) {
    const Node& node = g.node(n);
    const DelayBounds b =
        m.bounds(node.kind, static_cast<int>(g.fanout(n).size()));
    EXPECT_EQ(node.delay_min, b.min) << node.name;
    EXPECT_EQ(node.delay, b.max) << node.name;
  }
  // Re-annotating with the same model is now a no-op.
  EXPECT_EQ(m.annotate(g), 0);
  EXPECT_TRUE(validate(g).empty());
}

TEST(DelayModelTest, GraphRejectsMalformedBounds) {
  Graph g = chain3();
  const NodeId a = g.find("a");
  EXPECT_THROW(g.set_delay_bounds(a, -1, 2), std::invalid_argument);
  EXPECT_THROW(g.set_delay_bounds(a, 3, 2), std::invalid_argument);
  g.set_delay_bounds(a, 1, 3);
  EXPECT_TRUE(g.node(a).bounded_delay());
  EXPECT_TRUE(g.has_bounded_delays());
}

TEST(DelayModelTest, BoundedTimingBracketsPessimistic) {
  Graph g = dfglib::make_fir(16);
  DelayModel::dyno(8).annotate(g);
  const BoundedTimingInfo t = compute_timing_bounded(g);
  EXPECT_LE(t.critical_path_min, t.pess.critical_path);
  for (NodeId n : g.node_ids()) {
    EXPECT_LE(t.asap_min[n.value], t.pess.asap[n.value]) << g.node(n).name;
    EXPECT_GE(t.alap_min[n.value], t.pess.alap[n.value]) << g.node(n).name;
    // The width delay uncertainty adds to n's window.
    const int widening = (t.pess.asap[n.value] - t.asap_min[n.value]) +
                         (t.alap_min[n.value] - t.pess.alap[n.value]);
    EXPECT_GE(widening, 0) << g.node(n).name;
  }
}

TEST(DelayModelTest, BoundedTimingCoincidesOnExactGraphs) {
  const Graph g = dfglib::iir4_parallel();
  const BoundedTimingInfo t = compute_timing_bounded(g);
  EXPECT_EQ(t.critical_path_min, t.pess.critical_path);
  for (NodeId n : g.node_ids()) {
    EXPECT_EQ(t.asap_min[n.value], t.pess.asap[n.value]);
    EXPECT_EQ(t.alap_min[n.value], t.pess.alap[n.value]);
  }
}

// Independent oracle for the optimistic band: compute_timing() on a copy
// whose every interval is collapsed to [d_min, d_min], at the bounded
// analysis' own latency bound and at a looser one.
void expect_optimistic_band_matches_lowered_copy(const Graph& g) {
  SCOPED_TRACE(g.name());
  Graph lowered = g;
  for (NodeId n : lowered.node_ids()) {
    const int dmin = lowered.node(n).delay_min;
    lowered.set_delay_bounds(n, dmin, dmin);
  }
  const int latency = compute_timing_bounded(g).pess.latency;
  for (int bound : {latency, latency + 3}) {
    const BoundedTimingInfo t = compute_timing_bounded(g, bound);
    const TimingInfo pess = compute_timing(g, bound);
    const TimingInfo opt = compute_timing(lowered, bound);
    EXPECT_EQ(t.pess.latency, bound);
    EXPECT_EQ(t.pess.critical_path, pess.critical_path);
    EXPECT_EQ(t.pess.asap, pess.asap);
    EXPECT_EQ(t.pess.alap, pess.alap);
    EXPECT_EQ(t.critical_path_min, opt.critical_path);
    EXPECT_EQ(t.asap_min, opt.asap);
    EXPECT_EQ(t.alap_min, opt.alap);
  }
}

TEST(DelayModelTest, BoundedTimingMatchesLoweredCopyOnDesigns) {
  std::vector<Graph> designs = {dfglib::iir4_parallel(), dfglib::make_fir(16),
                                dfglib::make_fft(16),
                                dfglib::make_biquad_cascade(6)};
  for (const dfglib::MediabenchApp& app : dfglib::mediabench_table()) {
    if (app.operations <= 600) {
      designs.push_back(dfglib::make_mediabench_app(app));
    }
  }
  for (int bits : {8, 16}) {
    for (Graph g : designs) {
      DelayModel::dyno(bits).annotate(g);
      ASSERT_TRUE(g.has_bounded_delays()) << g.name();
      SCOPED_TRACE("dyno(" + std::to_string(bits) + ")");
      expect_optimistic_band_matches_lowered_copy(g);
    }
  }
}

TEST(DelayModelTest, BoundedTimingMatchesLoweredCopyOnFuzzCorpus) {
  const std::filesystem::path dir = LWM_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t bounded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    auto result = parse_cdfg(buf.str(), entry.path().filename().string());
    if (!result || !result.value().has_bounded_delays()) continue;
    expect_optimistic_band_matches_lowered_copy(result.value());
    ++bounded;
  }
  // The corpus must keep at least one interval-annotated design or the
  // test would silently check nothing.
  EXPECT_GE(bounded, 1u);
}

TEST(DelayModelTest, AnnotatedGraphRoundTripsThroughText) {
  Graph g = dfglib::make_fir(16);
  DelayModel::dyno(8).annotate(g);
  const Graph h = parse_cdfg(to_text(g)).value();
  for (NodeId n : g.node_ids()) {
    const NodeId hn = h.find(g.node(n).name);
    EXPECT_EQ(h.node(hn).delay, g.node(n).delay) << g.node(n).name;
    EXPECT_EQ(h.node(hn).delay_min, g.node(n).delay_min) << g.node(n).name;
  }
}

}  // namespace
}  // namespace lwm::cdfg
