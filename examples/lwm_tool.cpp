// lwm_tool — the file-based command-line workflow.
//
//   lwm_tool gen   <out.cdfg> [--cp N] [--ops N] [--seed S]
//   lwm_tool stats <design.cdfg>
//   lwm_tool embed <design.cdfg> <key> <out-prefix>
//                  [--marks N] [--tau T] [--k K] [--eps E]
//       writes <out-prefix>.cdfg (stripped design), <out-prefix>.sched
//       (watermark-honoring schedule) and <out-prefix>.lwm (records)
//   lwm_tool detect <design.cdfg> <schedule.sched> <key> <records.lwm>
//
// Everything round-trips through the text formats, so the whole
// embed-ship-detect cycle works across processes and machines.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cdfg/serialize.h"
#include "io/source.h"
#include "cdfg/stats.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"
#include "sched/schedule_io.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/records_io.h"

namespace {

using namespace lwm;

// All user-supplied artifacts enter through the lwm::io front door:
// open failures and oversized files become diagnostics naming the path,
// and the parse cores locate errors as "<path> line L, col C: why".
std::string slurp(const std::string& path) {
  return io::read_file(path).take_or_throw();
}

cdfg::Graph load_cdfg(const std::string& path) {
  return cdfg::parse_cdfg(slurp(path), path).take_or_throw();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

int opt_int(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

double opt_double(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 1) throw std::runtime_error("gen: missing output path");
  const int cp = opt_int(argc, argv, "--cp", 14);
  const int ops = opt_int(argc, argv, "--ops", 160);
  const int seed = opt_int(argc, argv, "--seed", 1);
  const cdfg::Graph g = dfglib::make_dsp_design(
      "generated", cp, ops, static_cast<std::uint64_t>(seed));
  spit(argv[0], cdfg::to_text(g));
  std::printf("wrote %s (%s)\n", argv[0],
              cdfg::compute_stats(g).to_string().c_str());
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 1) throw std::runtime_error("stats: missing design path");
  const cdfg::Graph g = load_cdfg(argv[0]);
  std::printf("%s: %s\n", g.name().c_str(),
              cdfg::compute_stats(g).to_string().c_str());
  return 0;
}

int cmd_embed(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("embed: need <design> <key> <out-prefix>");
  cdfg::Graph g = load_cdfg(argv[0]);
  const crypto::Signature sig("lwm_tool", argv[1]);
  const std::string prefix = argv[2];

  wm::SchedWmOptions opts;
  opts.domain.tau = opt_int(argc, argv, "--tau", 6);
  opts.k = opt_int(argc, argv, "--k", 4);
  opts.min_edges = 2;
  opts.epsilon = opt_double(argc, argv, "--eps", 0.3);
  const int count = opt_int(argc, argv, "--marks", 4);

  const auto marks = wm::embed_local_watermarks(g, sig, count, opts);
  if (marks.empty()) {
    std::printf("no locality accepted a watermark; try other parameters\n");
    return 1;
  }
  wm::RecordArchive archive;
  for (const auto& m : marks) {
    archive.sched.push_back(wm::SchedRecord::from(m, g));
  }
  const sched::Schedule s = sched::list_schedule(g);
  const double pc = wm::sched_pc_window_model(g, marks).log10_pc;
  g.strip_temporal_edges();

  spit(prefix + ".cdfg", cdfg::to_text(g));
  spit(prefix + ".sched", sched::schedule_to_text(g, s));
  spit(prefix + ".lwm", wm::to_text(archive));
  std::printf("embedded %zu watermarks (log10 Pc = %.2f)\n", marks.size(), pc);
  std::printf("wrote %s.cdfg, %s.sched, %s.lwm\n", prefix.c_str(),
              prefix.c_str(), prefix.c_str());
  return 0;
}

int cmd_detect(int argc, char** argv) {
  if (argc < 4) {
    throw std::runtime_error("detect: need <design> <schedule> <key> <records>");
  }
  const cdfg::Graph g = load_cdfg(argv[0]);
  const sched::Schedule s = sched::parse_schedule(g, slurp(argv[1]), argv[1]).take_or_throw();
  const crypto::Signature sig("lwm_tool", argv[2]);
  const wm::RecordArchive archive = wm::parse_records(slurp(argv[3]), argv[3]).take_or_throw();

  const auto reports = wm::detect_sched_watermarks(g, s, sig, archive.sched);
  int found = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& report = reports[i];
    std::printf("record %zu: %s (%zu hit(s) / %d roots)\n", i,
                report.detected() ? "DETECTED" : "not found",
                report.hits.size(), report.roots_scanned);
    found += report.detected();
  }
  std::printf("%d/%zu watermarks detected -> %s\n", found, archive.sched.size(),
              found > 0 ? "authorship established" : "no evidence");
  return found > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: lwm_tool gen|stats|embed|detect ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
    if (cmd == "embed") return cmd_embed(argc - 2, argv + 2);
    if (cmd == "detect") return cmd_detect(argc - 2, argv + 2);
    std::printf("unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
}
