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
  // psi_W/psi_N = 10/77 example pair), one step of slack past the
  // critical path.
  std::vector<cdfg::NodeId> subset;
  for (const cdfg::NodeId n : wm->subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  const cdfg::TimingInfo timing = cdfg::compute_timing(
      g, cdfg::critical_path_length(g) + 1, cdfg::EdgeFilter::specification());
  constexpr std::uint64_t kLimit = 1'000'000'000;

  // One row per temporal edge: psi_W (the edge honored) and psi_N (no
  // mark) over `members`.
  auto psi_table = [&](const char* w_label, const char* n_label,
                       auto members_of) {
    bench::Table t({"edge", w_label, n_label, "ratio"});
    for (const auto& c : wm->constraints) {
      const std::vector<cdfg::NodeId> members = members_of(c);
      const sched::ExtraPrecedence edge[] = {{c.src, c.dst}};
      const std::uint64_t psi_w =
          sched::count_schedules(g, timing, members, edge, kLimit).count;
      const std::uint64_t psi_n =
          sched::count_schedules(g, timing, members, {}, kLimit).count;
      t.add_row({g.node(c.src).name + "->" + g.node(c.dst).name,
                 bench::fmt_int(static_cast<long long>(psi_w)),
                 bench::fmt_int(static_cast<long long>(psi_n)),
                 bench::fmt("%.3f", psi_n == 0
                                        ? 0.0
                                        : static_cast<double>(psi_w) /
                                              static_cast<double>(psi_n))});
    }
    t.print();
  };
  std::printf("per-edge schedule counts over the two endpoints "
              "(paper's example pair: psi_W/psi_N = 10/77):\n");
  psi_table("psi_W", "psi_N", [](const auto& c) {
    return std::vector<cdfg::NodeId>{c.src, c.dst};
  });
  std::printf("\nper-edge counts over the whole executable subtree "
              "(count_schedules, psi_N per edge):\n");
  psi_table("psi_W(T)", "psi_N(T)", [&](const auto&) { return subset; });

  // Whole-subtree enumeration: the 166-vs-15 analogue.
  std::vector<sched::ExtraPrecedence> extra;
  for (const auto& c : wm->constraints) extra.push_back({c.src, c.dst});
  const auto free_count = sched::count_schedules(g, timing, subset, {}, kLimit);
  const auto marked_count =
      sched::count_schedules(g, timing, subset, extra, kLimit);

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
