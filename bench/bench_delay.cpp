// bench_delay — cost of the dynamically bounded delay model.
//
// Sweeps the dfglib kernels (plus the largest MediaBench app outside
// --smoke) twice: once at the exact unit model and once annotated with
// the dyno-style table (DelayModel::dyno(16)).  For each design it times
//   * TimingCache construction on the unit graph (the incremental
//     scheduler windows, d_max only);
//   * compute_timing_bounded() on the table graph — the one optimistic
//     timing engine, both the d_max and the d_min band from scratch;
//     its critical_path_min feeds the cp[min,max] column;
//   * k_worst_paths(k = 8) — the path-tree enumeration fed by the
//     max-delay graph;
//   * force-directed scheduling under the table delays (worst-case
//     d_max is the scheduling delay, so FDS runs unchanged).
// The JSON artifact carries throughput keys (higher is better) that
// tools/bench_compare.py gates on: kpaths_per_s, bounded_build_per_s
// (compute_timing_bounded calls per second), unit_build_per_s
// (TimingCache builds per second).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_io.h"
#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "cdfg/timing_cache.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "sched/force_directed.h"
#include "sched/kpaths.h"
#include "table.h"

using namespace lwm;

namespace {

struct DesignRow {
  std::string name;
  std::size_t ops = 0;
  double unit_build_ms = 0.0;
  double bounded_ms = 0.0;
  double kpaths_ms = 0.0;
  int cp_max = 0;
  int cp_min = 0;
  int fds_latency = 0;
};

double time_ms(int reps, const auto& fn) {
  const bench::Stopwatch sw;
  for (int r = 0; r < reps; ++r) fn();
  return sw.elapsed_ms() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_delay.json");
  const bench::Stopwatch wall;

  std::printf("== bench_delay: bounded delay model (unit vs dyno table) ==\n");
  std::printf("threads: %d%s\n\n", args.threads, args.smoke ? " (smoke)" : "");

  std::vector<std::pair<std::string, cdfg::Graph>> designs;
  designs.emplace_back("iir4", dfglib::iir4_parallel());
  designs.emplace_back("fir16", dfglib::make_fir(16));
  if (!args.smoke) {
    designs.emplace_back("fir64", dfglib::make_fir(64));
    designs.emplace_back("fft16", dfglib::make_fft(16));
    designs.emplace_back("biquad8", dfglib::make_biquad_cascade(8));
    const auto& apps = dfglib::mediabench_table();
    for (const auto& app : apps) {
      if (app.operations <= 600) {
        designs.emplace_back(app.name, dfglib::make_mediabench_app(app));
      }
    }
  }

  const int reps = args.smoke ? 5 : 50;
  const int kWorst = 8;
  const cdfg::DelayModel table = cdfg::DelayModel::dyno(16);

  std::vector<DesignRow> rows;
  double unit_builds_ms = 0.0, bounded_ms = 0.0, kpaths_ms = 0.0;
  for (auto& [name, unit_g] : designs) {
    DesignRow row;
    row.name = name;
    row.ops = unit_g.operation_count();

    cdfg::Graph table_g = unit_g;  // annotate a copy; unit stays exact
    table.annotate(table_g);

    row.unit_build_ms =
        time_ms(reps, [&] { cdfg::TimingCache tc(unit_g); (void)tc; });
    row.bounded_ms =
        time_ms(reps, [&] { (void)cdfg::compute_timing_bounded(table_g); });
    row.kpaths_ms = time_ms(
        reps, [&] { (void)sched::k_worst_paths(table_g, kWorst); });

    const cdfg::BoundedTimingInfo t = cdfg::compute_timing_bounded(table_g);
    row.cp_max = t.pess.critical_path;
    row.cp_min = t.critical_path_min;
    const sched::Schedule s = sched::force_directed_schedule(
        table_g, {.latency = row.cp_max + 2});
    row.fds_latency = s.length(table_g);

    unit_builds_ms += row.unit_build_ms;
    bounded_ms += row.bounded_ms;
    kpaths_ms += row.kpaths_ms;
    rows.push_back(std::move(row));
  }

  bench::Table out({"design", "ops", "unit build ms", "bounded timing ms",
                    "kpaths ms", "cp[min,max]", "fds len"});
  for (const DesignRow& r : rows) {
    out.add_row({r.name, std::to_string(r.ops),
                 bench::fmt("%.4f", r.unit_build_ms),
                 bench::fmt("%.4f", r.bounded_ms),
                 bench::fmt("%.4f", r.kpaths_ms),
                 "[" + std::to_string(r.cp_min) + ", " +
                     std::to_string(r.cp_max) + "]",
                 std::to_string(r.fds_latency)});
  }
  out.print();

  const auto per_s = [](double total_ms, std::size_t n) {
    return total_ms > 0.0 ? 1000.0 * static_cast<double>(n) / total_ms : 0.0;
  };
  bench::JsonObject json;
  json.add("bench", std::string("delay"));
  json.add("threads", args.threads);
  json.add("designs", static_cast<long long>(rows.size()));
  json.add("delay_model", table.describe());
  json.add("unit_build_per_s", per_s(unit_builds_ms, rows.size()));
  json.add("bounded_build_per_s", per_s(bounded_ms, rows.size()));
  json.add("kpaths_per_s", per_s(kpaths_ms, rows.size()));
  json.add("wall_ms", wall.elapsed_ms());
  bench::attach_obs(json, args);
  json.write(args.json_path);
  return 0;
}
