// bench_robustness — detection robustness under structural tampering,
// plus fingerprint-based leak identification.
//
// Two studies beyond the paper's evaluation (both directions it argues
// qualitatively):
//   1. decoy insertion: the adversary splices dummy unit operations into
//      idle slots (free in schedule quality) to deform the localities
//      the detector re-derives; we sweep the decoy count and measure
//      how many of the vendor's local watermarks stay detectable.
//   2. fingerprinting: three licensed copies of one core, each carrying
//      recipient-keyed copy marks; one leaks; the audit scores every
//      candidate and must single out the true leaker.
#include <cstdio>
#include <vector>

#include "bench_io.h"
#include "cdfg/normalize.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "sched/list_sched.h"
#include "table.h"
#include "wm/attack.h"
#include "wm/fingerprint.h"

using namespace lwm;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_robustness.json");
  const bench::Stopwatch wall;
  exec::ThreadPool pool(args.threads);
  exec::ThreadPool* parallel = args.threads > 1 ? &pool : nullptr;
  std::printf("== Robustness: decoy insertion & leak identification ==\n\n");

  const crypto::Signature vendor("vendor", "robustness-bench-key");

  // ---- decoy sweep ----------------------------------------------------------
  std::printf("decoy-insertion attack (8 local watermarks, 300-op core):\n");
  std::printf("(naive = detect on the tampered graph; normalized = detector\n");
  std::printf(" collapses transparent unit ops first — cdfg::normalize_unit_ops)\n");
  bench::Table decoy_table(
      {"decoys inserted", "ops changed", "detected naive", "detected normalized"});
  int detected_clean = 0, marks_total = 0;
  const std::vector<int> decoy_counts =
      args.smoke ? std::vector<int>{0, 15} : std::vector<int>{0, 5, 15, 40, 100};
  for (const int decoys : decoy_counts) {
    cdfg::Graph g = dfglib::make_dsp_design("robust_core", 16,
                                            args.smoke ? 100 : 300, 4848);
    wm::SchedWmOptions opts;
    opts.domain.tau = 6;
    opts.k = 4;
    opts.min_edges = 2;
    opts.epsilon = 0.3;
    const auto marks = wm::embed_local_watermarks(g, vendor, 8, opts);
    std::vector<wm::SchedRecord> records;
    for (const auto& m : marks) records.push_back(wm::SchedRecord::from(m, g));
    sched::Schedule s = sched::list_schedule(g);
    g.strip_temporal_edges();

    const auto inserted = wm::insert_decoys(g, s, decoys, 99);
    int naive = 0;
    for (const auto& rec : records) {
      naive += wm::detect_sched_watermark(g, s, vendor, rec, parallel).detected();
    }
    cdfg::Graph canon = g;
    (void)cdfg::normalize_unit_ops(canon);
    int normalized = 0;
    for (const auto& rec : records) {
      normalized +=
          wm::detect_sched_watermark(canon, s, vendor, rec, parallel).detected();
    }
    if (decoys == 0) {
      detected_clean = naive;
      marks_total = static_cast<int>(records.size());
    }
    decoy_table.add_row(
        {bench::fmt_int(decoys),
         bench::fmt("%.1f%%", 100.0 * static_cast<double>(inserted.size()) /
                                  static_cast<double>(g.operation_count())),
         bench::fmt_int(naive) + "/" +
             bench::fmt_int(static_cast<long long>(records.size())),
         bench::fmt_int(normalized) + "/" +
             bench::fmt_int(static_cast<long long>(records.size()))});
  }
  decoy_table.print();

  // ---- fingerprinting --------------------------------------------------------
  std::printf("\nleak identification (3 licensed copies, copy 'beta' leaks):\n");
  const cdfg::Graph core =
      dfglib::make_dsp_design("licensed_core", 14, args.smoke ? 100 : 240, 4949);
  wm::SchedWmOptions fopts;
  fopts.domain.tau = 8;
  fopts.k = 5;
  fopts.min_edges = 3;
  fopts.epsilon = 0.3;
  std::vector<wm::FingerprintedCopy> copies;
  for (const char* r : {"alpha", "beta", "gamma"}) {
    copies.push_back(wm::fingerprint_copy(core, vendor, r, fopts));
  }
  const wm::LeakReport report =
      wm::identify_leak(copies[1].design, copies[1].schedule, vendor, copies);

  bench::Table leak_table({"recipient", "copy marks found"});
  for (const auto& score : report.scores) {
    leak_table.add_row({score.recipient,
                        bench::fmt_int(score.marks_found) + "/" +
                            bench::fmt_int(score.marks_total)});
  }
  leak_table.print();
  std::printf("ownership established: %s; likely leaker: %s\n",
              report.ownership_established ? "yes" : "no",
              report.likely_leaker() != nullptr
                  ? report.likely_leaker()->recipient.c_str()
                  : "(none)");

  std::printf("\nshape checks:\n");
  std::printf("  * detection degrades gracefully with decoy volume; light "
              "obfuscation leaves most marks\n");
  std::printf("  * the leaking recipient's score dominates the others\n");

  bench::JsonObject json;
  json.add("bench", std::string("robustness"));
  json.add("threads", args.threads);
  json.add("marks_total", marks_total);
  json.add("detected_clean", detected_clean);
  json.add("ownership_established", report.ownership_established ? 1 : 0);
  json.add("likely_leaker",
           report.likely_leaker() != nullptr ? report.likely_leaker()->recipient
                                             : std::string("(none)"));
  json.add("wall_ms", wall.elapsed_ms());
  bench::attach_obs(json, args);
  return json.write(args.json_path) ? 0 : 1;
}
