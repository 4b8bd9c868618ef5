// The paper path, pinned: the serial scheduling embedders
// (plan_sched_watermark, embed_watermarks_until_edges,
// embed_local_watermarks) draw each temporal edge under the exact cycle
// guard, so their marks are the ones the Fig. 3 and Table I benches
// print.  A more conservative guard (the topo-rank guard of the parallel
// embedder) refuses order-opposing edges and visibly changes those
// results: fewer edges per Table I cell, a failed Fig. 3 plan.  These
// numbers are the benches' own; a change to any of them is a change to
// the reproduced paper results, not a refactor.
#include "wm/sched_constraints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "dfglib/iir4.h"
#include "dfglib/mediabench.h"
#include "sched/enumerate.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

// bench_fig3's plan: root A9 of the parallel IIR filter.
std::optional<SchedWatermark> fig3_plan(const Graph& g) {
  const crypto::Signature author("author", "fig3-motivational-key");
  SchedWmOptions opts;
  opts.domain.tau = 6;
  opts.domain.keep_num = 2;
  opts.domain.keep_den = 3;
  opts.k = 5;
  opts.tau_prime_min = 2;
  opts.epsilon = 0.17;
  return plan_sched_watermark(g, g.find("A9"), author, opts);
}

TEST(PaperPathPinTest, Fig3MotivationalPlan) {
  const Graph g = dfglib::iir4_parallel();
  const auto wm = fig3_plan(g);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->subtree.size(), 28u);
  std::vector<std::string> edges;
  for (const TemporalConstraint& c : wm->constraints) {
    edges.push_back(g.node(c.src).name + "->" + g.node(c.dst).name);
  }
  EXPECT_EQ(edges, (std::vector<std::string>{"C8->C7", "C7->C3"}));
}

// bench_fig3's schedule counts at its latency, the critical path plus
// one step: the carved subtree's space without and with the mark
// (EXPERIMENTS.md "Fig. 3"), then each edge's psi_W/psi_N over its two
// endpoints and over the whole executable subtree.
TEST(PaperPathPinTest, Fig3ScheduleCounts) {
  const Graph g = dfglib::iir4_parallel();
  const auto wm = fig3_plan(g);
  ASSERT_TRUE(wm.has_value());
  std::vector<cdfg::NodeId> subset;
  for (const cdfg::NodeId n : wm->subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  const cdfg::TimingInfo timing = cdfg::compute_timing(
      g, cdfg::critical_path_length(g) + 1, cdfg::EdgeFilter::specification());
  std::vector<sched::ExtraPrecedence> extra;
  for (const TemporalConstraint& c : wm->constraints) {
    extra.push_back({c.src, c.dst});
  }
  const sched::EnumerationResult free_count =
      sched::count_schedules(g, timing, subset);
  const sched::EnumerationResult marked_count =
      sched::count_schedules(g, timing, subset, extra);
  EXPECT_EQ(free_count.count, 15488u);
  EXPECT_EQ(marked_count.count, 724u);
  EXPECT_FALSE(free_count.saturated);
  EXPECT_FALSE(marked_count.saturated);

  // psi_W / psi_N of one edge over `members`, as "w/n".
  auto ratio = [&](const std::vector<cdfg::NodeId>& members,
                   const TemporalConstraint& c) {
    const sched::ExtraPrecedence edge[] = {{c.src, c.dst}};
    return std::to_string(
               sched::count_schedules(g, timing, members, edge).count) +
           "/" +
           std::to_string(sched::count_schedules(g, timing, members).count);
  };
  std::vector<std::string> pair, subtree;
  for (const TemporalConstraint& c : wm->constraints) {
    pair.push_back(ratio({c.src, c.dst}, c));
    subtree.push_back(ratio(subset, c));
  }
  EXPECT_EQ(pair, (std::vector<std::string>{"6/20", "6/16"}));
  EXPECT_EQ(subtree, (std::vector<std::string>{"4404/15488", "5742/15488"}));
}

// bench_table1's options and key.
SchedWmOptions table1_options() {
  SchedWmOptions opts;
  opts.domain.tau = 8;
  opts.k = 5;
  opts.epsilon = 0.3;
  return opts;
}

crypto::Signature table1_author() {
  return {"author", "table1-watermark-key"};
}

int embedded_edges(const Graph& g, double fraction) {
  const int n = static_cast<int>(g.operation_count());
  const int target_edges = std::max(1, static_cast<int>(fraction * n / 2.0));
  Graph marked = g;
  int edges = 0;
  for (const SchedWatermark& m : embed_watermarks_until_edges(
           marked, table1_author(), target_edges, table1_options())) {
    edges += static_cast<int>(m.constraints.size());
  }
  return edges;
}

// The "edges 2%" / "edges 5%" columns of bench_table1.
TEST(PaperPathPinTest, Table1EdgeCounts) {
  const std::vector<std::pair<int, int>> want = {
      {5, 16}, {7, 20}, {8, 23}, {7, 17}, {17, 43}, {10, 20}, {14, 35}, {13, 35},
  };
  const auto& apps = dfglib::mediabench_table();
  ASSERT_EQ(apps.size(), want.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const Graph g = dfglib::make_mediabench_app(apps[i]);
    EXPECT_EQ(embedded_edges(g, 0.02), want[i].first) << apps[i].name;
    EXPECT_EQ(embedded_edges(g, 0.05), want[i].second) << apps[i].name;
  }
}

// Every accepted record of embed_local_watermarks — root, constraints
// with their subtree positions, and the ordered carved subtree.
TEST(PaperPathPinTest, LocalWatermarksFingerprint) {
  Graph g = dfglib::make_mediabench_app(dfglib::mediabench_table()[1]);  // G721
  const auto marks = embed_local_watermarks(g, table1_author(), 4, table1_options());
  std::string fp;
  for (const SchedWatermark& m : marks) {
    fp += "root:" + std::to_string(m.root.value);
    for (const TemporalConstraint& c : m.constraints) {
      fp += " " + std::to_string(c.src.value) + "->" + std::to_string(c.dst.value) +
            "@" + std::to_string(c.src_pos) + "," + std::to_string(c.dst_pos);
    }
    fp += " |";
    for (const cdfg::NodeId n : m.subtree) fp += " " + std::to_string(n.value);
    fp += "\n";
  }
  EXPECT_EQ(fp,
            "root:521 403->446@4,9 446->413@9,6 435->389@7,2 | 1 4 389 405 403 "
            "420 413 435 447 446 450 478 521\n"
            "root:457 326->257@9,11 | 244 235 268 5 275 4 274 236 0 326 267 257 "
            "353 290 327 376 328 371 381 374 391 387 404 432 457\n"
            "root:498 301->389@3,14 337->259@9,2 389->259@14,2 | 5 4 259 301 270 "
            "0 1 283 285 337 376 330 335 373 389 381 383 405 403 402 420 413 447 "
            "445 469 498\n"
            "root:462 403->430@3,5 | 0 1 389 403 422 430 462\n");
}

}  // namespace
}  // namespace lwm::wm
