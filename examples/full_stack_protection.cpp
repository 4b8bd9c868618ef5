// full_stack_protection — every protocol on one design, end to end:
// scheduling watermarks (hidden temporal edges), register watermarks
// (hidden share pairs), datapath synthesis through the HLS facade,
// archival of all detection records to the text format, and detection
// from the reloaded archive — the complete vendor workflow.
#include <cstdio>
#include <sstream>

#include "cdfg/stats.h"
#include "dfglib/synth.h"
#include "hls/datapath.h"
#include "wm/records_io.h"

int main() {
  using namespace lwm;

  cdfg::Graph design = dfglib::make_dsp_design("radar_frontend", 18, 300, 777);
  const crypto::Signature vendor("sensorworks", "sensorworks-master-key");
  std::printf("design: %s\n", cdfg::compute_stats(design).to_string().c_str());

  // --- baseline datapath ------------------------------------------------------
  hls::DatapathOptions base_opts;
  base_opts.filter = cdfg::EdgeFilter::specification();
  const hls::Datapath baseline = hls::synthesize_datapath(design, base_opts);
  std::printf("baseline   : %s\n", baseline.to_string().c_str());

  // --- layer 1: scheduling watermarks -----------------------------------------
  wm::SchedWmOptions sopts;
  sopts.domain.tau = 6;
  sopts.k = 4;
  sopts.min_edges = 2;
  sopts.epsilon = 0.3;
  const auto sched_marks = wm::embed_local_watermarks(design, vendor, 4, sopts);

  // --- layer 2: register watermarks (planned against the marked schedule) ----
  hls::DatapathOptions probe_opts;  // honors the temporal edges
  const hls::Datapath probe = hls::synthesize_datapath(design, probe_opts);
  const auto lifetimes = regbind::compute_lifetimes(design, probe.schedule);
  wm::RegWmOptions ropts;
  ropts.domain.tau = 6;
  ropts.m = 3;
  ropts.min_pairs = 2;
  const auto reg_marks =
      wm::plan_reg_watermarks(design, lifetimes, vendor, 3, ropts);

  // --- synthesize the protected datapath --------------------------------------
  hls::DatapathOptions marked_opts;
  marked_opts.reg_constraints = wm::to_binding_constraints(reg_marks);
  const hls::Datapath protected_dp = hls::synthesize_datapath(design, marked_opts);
  std::printf("protected  : %s\n", protected_dp.to_string().c_str());
  std::printf("overhead   : latency %+d step(s), %+d unit(s), %+d register(s), "
              "area %+.1f (%.2f%%)\n",
              protected_dp.latency - baseline.latency,
              protected_dp.total_units() - baseline.total_units(),
              protected_dp.registers - baseline.registers,
              protected_dp.area() - baseline.area(),
              100.0 * (protected_dp.area() - baseline.area()) /
                  baseline.area());

  // --- archive the records -----------------------------------------------------
  wm::RecordArchive archive;
  for (const auto& m : sched_marks) {
    archive.sched.push_back(wm::SchedRecord::from(m, design));
  }
  for (const auto& m : reg_marks) {
    archive.reg.push_back(wm::RegRecord::from(m, design));
  }
  const std::string archive_text = wm::to_text(archive);
  std::printf("\narchived %zu scheduling + %zu register records "
              "(%zu bytes):\n%s",
              archive.sched.size(), archive.reg.size(), archive_text.size(),
              archive_text.c_str());

  // --- years later: detection from the reloaded archive ------------------------
  cdfg::Graph shipped = design;
  shipped.strip_temporal_edges();
  const wm::RecordArchive reloaded = wm::parse_records(archive_text).value();

  int sched_found = 0;
  for (const auto& rec : reloaded.sched) {
    sched_found += wm::detect_sched_watermark(shipped, protected_dp.schedule,
                                              vendor, rec)
                       .detected();
  }
  const auto shipped_lifetimes =
      regbind::compute_lifetimes(shipped, protected_dp.schedule);
  int reg_found = 0;
  for (const auto& rec : reloaded.reg) {
    reg_found += wm::detect_reg_watermark(shipped, shipped_lifetimes,
                                          protected_dp.binding, vendor, rec)
                     .detected();
  }
  std::printf("\ndetection from reloaded archive: %d/%zu scheduling, "
              "%d/%zu register watermarks\n",
              sched_found, reloaded.sched.size(), reg_found,
              reloaded.reg.size());
  return (sched_found > 0 && reg_found > 0) ? 0 : 1;
}
