// bench_full_stack — total datapath cost as protection layers stack.
//
// The paper's claim is per-task ("negligible overhead in solution
// quality"); a vendor stacks protocols, so the number that matters in
// practice is the *combined* datapath overhead: latency, functional
// units, registers, steering muxes, estimated area.  Sweeps the stack:
// none -> scheduling marks -> + register marks, at two budgets.
#include <cstdio>
#include <vector>

#include "bench_io.h"
#include "cdfg/stats.h"
#include "dfglib/synth.h"
#include "hls/datapath.h"
#include "table.h"
#include "wm/pc.h"
#include "wm/reg_constraints.h"
#include "wm/sched_constraints.h"

using namespace lwm;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_full_stack.json");
  const bench::Stopwatch wall;
  std::printf("== Full-stack protection: combined datapath overhead ==\n\n");

  cdfg::Graph original =
      dfglib::make_dsp_design("stack_core", 18, args.smoke ? 100 : 300, 888);
  const crypto::Signature vendor("vendor", "full-stack-key");
  std::printf("design: %s\n\n", cdfg::compute_stats(original).to_string().c_str());

  double last_overhead_pct = 0.0;
  double last_pc = 0.0;
  const std::vector<int> budget_factors =
      args.smoke ? std::vector<int>{1} : std::vector<int>{1, 2};
  for (const int budget_factor : budget_factors) {
    const int cp = cdfg::critical_path_length(original);
    const int budget = budget_factor * cp;
    std::printf("--- control-step budget: %d (= %dx critical path) ---\n",
                budget, budget_factor);

    // Layer 0: baseline.
    hls::DatapathOptions opts0;
    opts0.latency = budget;
    opts0.filter = cdfg::EdgeFilter::specification();
    const hls::Datapath dp0 = hls::synthesize_datapath(original, opts0);

    // Layer 1: scheduling watermarks.
    cdfg::Graph marked = original;
    wm::SchedWmOptions sopts;
    sopts.domain.tau = 6;
    sopts.k = 4;
    sopts.min_edges = 2;
    sopts.epsilon = 0.3;
    const auto sched_marks = wm::embed_local_watermarks(marked, vendor, 4, sopts);
    hls::DatapathOptions opts1;
    opts1.latency = budget;
    const hls::Datapath dp1 = hls::synthesize_datapath(marked, opts1);
    const double sched_pc =
        wm::sched_pc_window_model(marked, sched_marks).log10_pc;

    // Layer 2: + register watermarks.
    const auto lifetimes = regbind::compute_lifetimes(marked, dp1.schedule);
    wm::RegWmOptions ropts;
    ropts.domain.tau = 6;
    ropts.m = 3;
    ropts.min_pairs = 2;
    const auto reg_marks =
        wm::plan_reg_watermarks(marked, lifetimes, vendor, 3, ropts);
    hls::DatapathOptions opts2 = opts1;
    opts2.reg_constraints = wm::to_binding_constraints(reg_marks);
    const hls::Datapath dp2 = hls::synthesize_datapath(marked, opts2);
    const double reg_pc = wm::log10_reg_pc(marked, lifetimes, reg_marks);

    bench::Table t({"stack", "log10 Pc", "latency", "units", "regs",
                    "mux in", "area", "area OH"});
    auto row = [&](const char* name, double pc, const hls::Datapath& dp) {
      t.add_row({name, pc == 0.0 ? "-" : bench::fmt("%.1f", pc),
                 bench::fmt_int(dp.latency), bench::fmt_int(dp.total_units()),
                 bench::fmt_int(dp.registers), bench::fmt_int(dp.mux_inputs),
                 bench::fmt("%.1f", dp.area()),
                 bench::fmt("%+.2f%%", 100.0 * (dp.area() - dp0.area()) /
                                           dp0.area())});
    };
    row("baseline", 0.0, dp0);
    row("+ sched marks", sched_pc, dp1);
    row("+ reg marks", sched_pc + reg_pc, dp2);
    t.print();
    std::printf("\n");
    last_overhead_pct = 100.0 * (dp2.area() - dp0.area()) / dp0.area();
    last_pc = sched_pc + reg_pc;
  }

  std::printf("shape checks:\n");
  std::printf("  * combined proof strength multiplies across layers\n");
  std::printf("  * total area overhead stays in low single digits at both "
              "budgets\n");

  bench::JsonObject json;
  json.add("bench", std::string("full_stack"));
  json.add("threads", args.threads);
  json.add("ops", static_cast<long long>(original.operation_count()));
  json.add("budgets", static_cast<long long>(budget_factors.size()));
  json.add("full_stack_area_overhead_pct", last_overhead_pct);
  json.add("full_stack_log10_pc", last_pc);
  json.add("wall_ms", wall.elapsed_ms());
  bench::attach_obs(json, args);
  return json.write(args.json_path) ? 0 : 1;
}
