// bench_fig3 — reproduces the paper's Fig. 3 motivational example:
// local watermarking of a scheduling solution on the 4th-order parallel
// IIR filter.
//
// The paper reports, for its example subtree T of the filter:
//   * a pair of operations schedulable in psi_N = 77 ways of which only
//     psi_W = 10 satisfy one watermark temporal edge;
//   * 166 schedules of the unconstrained subtree vs 15 with all the
//     watermark edges, i.e. P_c = 15/166.
// Our reconstruction of the filter (the figures are not machine-readable)
// has the same operation counts but slightly different slack structure,
// so the absolute counts differ; the *shape* — an order-of-magnitude
// collapse of the schedule space — is what this binary demonstrates.
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench_io.h"
#include "cdfg/analysis.h"
#include "dfglib/iir4.h"
#include "exec/thread_pool.h"
#include "sched/enumerate.h"
#include "table.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

using namespace lwm;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_fig3.json");
  exec::ThreadPool pool(args.threads);
  exec::ThreadPool* parallel = args.threads > 1 ? &pool : nullptr;
  const bench::Stopwatch wall;

  std::printf("== Fig. 3: local watermarking of scheduling solutions "
              "(4th-order parallel IIR) ==\n");
  std::printf("threads: %d\n\n", args.threads);

  const cdfg::Graph g = dfglib::iir4_parallel();
  const crypto::Signature author("author", "fig3-motivational-key");

  std::printf("design: %zu operations, critical path %d steps\n\n",
              g.operation_count(), cdfg::critical_path_length(g));

  // Subtree selection + constraint encoding at root A9.
  wm::SchedWmOptions opts;
  opts.domain.tau = 6;
  opts.domain.keep_num = 2;  // carve T out of the cone (the paper's T is a
  opts.domain.keep_den = 3;  // proper subtree, not the whole filter)
  opts.k = 5;              // the paper draws 5 temporal edges; our filter
  opts.tau_prime_min = 2;  // reconstruction has a ~6-node candidate pool,
  opts.epsilon = 0.17;     // so K clamps to what the pool supports
  const auto wm = wm::plan_sched_watermark(g, g.find("A9"), author, opts);
  if (!wm) {
    std::printf("FAILED to plan watermark\n");
    return 1;
  }

  std::printf("watermark root A9, |T| = %zu, temporal edges:\n",
              wm->subtree.size());
  for (const auto& c : wm->constraints) {
    std::printf("  %s -> %s\n", g.node(c.src).name.c_str(),
                g.node(c.dst).name.c_str());
  }
  std::printf("\n");

  // Per-edge psi counts over the executable subtree (cf. the paper's
  // psi_W/psi_N = 10/77 example pair).
  std::vector<cdfg::NodeId> subset;
  for (const cdfg::NodeId n : wm->subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  sched::EnumerationOptions eopts;
  eopts.filter = cdfg::EdgeFilter::specification();
  eopts.latency = cdfg::critical_path_length(g) + 1;  // one slack step
  eopts.pool = parallel;

  bench::Table per_edge({"edge", "psi_W", "psi_N", "ratio"});
  for (const auto& c : wm->constraints) {
    const std::vector<cdfg::NodeId> pair = {c.src, c.dst};
    const sched::PsiCounts psi = sched::psi_counts(g, pair, c.src, c.dst, eopts);
    per_edge.add_row({g.node(c.src).name + "->" + g.node(c.dst).name,
                      bench::fmt_int(static_cast<long long>(psi.psi_w)),
                      bench::fmt_int(static_cast<long long>(psi.psi_n)),
                      bench::fmt("%.3f", psi.psi_n == 0
                                             ? 0.0
                                             : static_cast<double>(psi.psi_w) /
                                                   static_cast<double>(psi.psi_n))});
  }
  std::printf("per-edge schedule counts over the two endpoints "
              "(paper's example pair: psi_W/psi_N = 10/77):\n");
  per_edge.print();

  // Batched psi over the whole executable subtree: psi_N is enumerated
  // once and every edge's psi_W is evaluated concurrently.
  std::vector<sched::ExtraPrecedence> candidate_edges;
  for (const auto& c : wm->constraints) candidate_edges.push_back({c.src, c.dst});
  const std::vector<sched::PsiCounts> batch =
      sched::psi_counts_batch(g, subset, candidate_edges, eopts);
  bench::Table per_edge_subtree({"edge", "psi_W(T)", "psi_N(T)", "ratio"});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& c = wm->constraints[i];
    per_edge_subtree.add_row(
        {g.node(c.src).name + "->" + g.node(c.dst).name,
         bench::fmt_int(static_cast<long long>(batch[i].psi_w)),
         bench::fmt_int(static_cast<long long>(batch[i].psi_n)),
         bench::fmt("%.3f", batch[i].psi_n == 0
                                ? 0.0
                                : static_cast<double>(batch[i].psi_w) /
                                      static_cast<double>(batch[i].psi_n))});
  }
  std::printf("\nper-edge counts over the whole executable subtree "
              "(psi_counts_batch, one psi_N enumeration):\n");
  per_edge_subtree.print();

  // Whole-subtree enumeration: the 166-vs-15 analogue.
  std::vector<sched::ExtraPrecedence> extra;
  for (const auto& c : wm->constraints) extra.push_back({c.src, c.dst});
  const auto free_count = sched::count_schedules(g, subset, {}, eopts);
  const auto marked_count = sched::count_schedules(g, subset, extra, eopts);

  std::printf("\nsubtree schedule space (paper: 166 unconstrained, 15 "
              "with watermark, P_c = 15/166 = %.4f):\n", 15.0 / 166.0);
  bench::Table total({"variant", "schedules"});
  total.add_row({"unconstrained (ours)",
                 bench::fmt_int(static_cast<long long>(free_count.count))});
  total.add_row({"with watermark (ours)",
                 bench::fmt_int(static_cast<long long>(marked_count.count))});
  total.print();
  if (free_count.count > 0) {
    std::printf("P_c (exact, ours) = %" PRIu64 "/%" PRIu64 " = %.4f\n",
                marked_count.count, free_count.count,
                static_cast<double>(marked_count.count) /
                    static_cast<double>(free_count.count));
  }

  // log10 P_c from the two counts above; a zero numerator reports the
  // floor one decade below 1/free, as the exact P_c path does.
  const bool exact = !free_count.saturated && !marked_count.saturated &&
                     free_count.count > 0;
  const double log10_pc_exact =
      !exact ? 0.0
      : marked_count.count == 0
          ? -std::log10(static_cast<double>(free_count.count)) - 1.0
          : std::log10(static_cast<double>(marked_count.count)) -
                std::log10(static_cast<double>(free_count.count));
  std::printf("log10 P_c via exact counts = %.3f (%s)\n", log10_pc_exact,
              exact ? "exact" : "saturated");

  // Triangulate the three estimators the library offers.
  const wm::SchedWatermark marks[] = {*wm};
  const wm::PcEstimate window = wm::sched_pc_window_model(g, marks);
  const wm::PcEstimate sampled =
      wm::sched_pc_sampled(g, marks, 100000, 42, -1, parallel);
  std::printf("log10 P_c via window model        = %.3f\n", window.log10_pc);
  std::printf("log10 P_c via 100k sampled schedules = %.3f\n", sampled.log10_pc);

  bench::JsonObject json;
  json.add("bench", std::string("fig3"));
  json.add("threads", args.threads);
  json.add("wall_ms", wall.elapsed_ms());
  json.add("free_count", static_cast<unsigned long long>(free_count.count));
  json.add("marked_count", static_cast<unsigned long long>(marked_count.count));
  json.add("edges", static_cast<long long>(wm->constraints.size()));
  json.add("log10_pc_exact", log10_pc_exact);
  bench::attach_obs(json, args);
  return json.write(args.json_path) ? 0 : 1;
}
