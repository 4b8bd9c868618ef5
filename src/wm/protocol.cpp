#include "wm/protocol.h"

#include <stdexcept>

#include "obs/obs.h"

namespace lwm::wm {

using cdfg::Graph;

namespace {

sched::Schedule run_scheduler(const Graph& g, const sched::ResourceSet& res,
                              cdfg::EdgeFilter filter) {
  sched::ListScheduleOptions opts;
  opts.resources = res;
  opts.filter = filter;
  return sched::list_schedule(g, opts);
}

}  // namespace

SchedProtocolResult run_sched_protocol(const Graph& original,
                                       const crypto::Signature& sig,
                                       const SchedProtocolConfig& config) {
  LWM_SPAN("wm/protocol");
  SchedProtocolResult result;
  result.solution = original;  // working copy

  // Preprocess: embed the signature-derived temporal edges.
  {
    LWM_SPAN("wm/embed");
    result.marks = embed_local_watermarks(result.solution, sig,
                                          config.watermark_count, config.wm);
  }

  // Synthesis: the scheduler sees original + watermark constraints.
  result.schedule = run_scheduler(result.solution, config.resources,
                                  cdfg::EdgeFilter::all());
  result.latency_marked = result.schedule.length(result.solution);

  // Baseline: the unconstrained tool on the original spec.
  result.baseline = run_scheduler(result.solution, config.resources,
                                  cdfg::EdgeFilter::specification());
  result.latency_baseline = result.baseline.length(result.solution);

  // Post-synthesis: strip the constraints from the delivered spec.
  result.solution.strip_temporal_edges();

  result.pc = sched_pc_window_model(result.solution, result.marks);
  return result;
}

VliwProtocolResult run_vliw_protocol(const Graph& original,
                                     const crypto::Signature& sig,
                                     const SchedWmOptions& wm_opts,
                                     int watermark_count,
                                     const vliw::Machine& machine) {
  VliwProtocolResult result;

  const vliw::VliwResult base = vliw::vliw_schedule(
      original, machine, cdfg::EdgeFilter::specification());
  result.cycles_baseline = base.cycles;

  Graph marked = original;
  result.marks = embed_local_watermarks(marked, sig, watermark_count, wm_opts);
  result.pc = sched_pc_window_model(marked, result.marks);

  // In the compiled setting the constraints become real unit operations.
  (void)materialize_with_unit_ops(marked, result.marks);
  const vliw::VliwResult wm =
      vliw::vliw_schedule(marked, machine, cdfg::EdgeFilter::all());
  result.cycles_marked = wm.cycles;
  return result;
}

TmProtocolResult run_tm_protocol(const Graph& original,
                                 const tmatch::TemplateLibrary& lib,
                                 const crypto::Signature& sig,
                                 const TmProtocolConfig& config) {
  // The watermark's near-critical exclusion works against the same
  // control-step budget the allocator will use.
  TmWmOptions wm_opts = config.wm;
  if (wm_opts.budget < 0) wm_opts.budget = config.budget_steps;
  std::optional<TmWatermark> wm = plan_tm_watermark(original, lib, sig, wm_opts);
  if (!wm) {
    throw std::runtime_error("run_tm_protocol: no enforceable matchings on '" +
                             original.name() + "'");
  }
  TmProtocolResult result;
  result.watermark = *wm;

  result.cover_baseline = tmatch::greedy_cover(original, lib, {});
  result.cover_marked = tmatch::greedy_cover(original, lib, cover_options(*wm));

  const tmatch::MappedDesign base_design =
      tmatch::build_mapped_design(original, result.cover_baseline);
  const tmatch::MappedDesign marked_design =
      tmatch::build_mapped_design(original, result.cover_marked);

  int budget = config.budget_steps;
  const int base_cp = cdfg::critical_path_length(base_design.macro);
  const int marked_cp = cdfg::critical_path_length(marked_design.macro);
  if (budget < 0) budget = std::max(base_cp, marked_cp);
  result.alloc_baseline = tmatch::allocate_modules(
      base_design, lib, std::max(budget, base_cp));
  result.alloc_marked = tmatch::allocate_modules(
      marked_design, lib, std::max(budget, marked_cp));

  result.pc = tm_pc(original, lib, *wm);
  return result;
}

}  // namespace lwm::wm
