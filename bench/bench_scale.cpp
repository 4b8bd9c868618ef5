// bench_scale — the workload axis: mega-designs through the full
// pipeline at 1k / 10k / 100k / 1M operations (1k / 10k under --smoke).
//
// Per size, one deep layered mega-design (dfglib::make_mega_design,
// fixed seed) runs generate -> serialize -> streaming parse -> embed ->
// detect:
//   * embed — embed_local_watermarks_parallel: locality count scales
//     with the design, planning fans out over the pool, and the merge is
//     thread-count invariant;
//   * detect — detect_sched_watermarks over every executable root
//     against all records (root prefilter + shared carve per root);
//   * streaming parse — cdfg::parse_cdfg over an istream of the
//     serialized text, the path that carries >16 MiB graph files;
//   * P_c — sched_pc_auto over all embedded marks, the figure the
//     serve embed and pc requests report: the Poisson model above 2048
//     nodes, exact enumeration (bounded per mark, Poisson on saturation)
//     at or below it, so only the 1k design takes the exact path.
// The suspect schedule is the ASAP schedule of the watermarked graph
// over all edges (temporal included), so every embedded constraint holds
// and detection must recover every record.
//
// At every size each timed phase (generate, parse, embed, detect) is the
// fastest of three runs, embed each time on a fresh copy of the design,
// so a key compares across runs at 1M ops as at 1k.
//
// The JSON artifact reports throughput (higher is better): the headline
// embed_ops_per_s / detect_ops_per_s / stream_parse_mb_per_s at the
// largest size swept, plus per-size keys of all three for
// tools/bench_compare.py's "scale" schema.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_io.h"
#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "crypto/signature.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "sched/schedule.h"
#include "table.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

using namespace lwm;

namespace {

struct SizeRow {
  int ops = 0;
  std::size_t nodes = 0;
  double gen_ms = 0.0;
  double stream_mb_per_s = 0.0;
  double embed_ms = 0.0;
  int marks = 0;
  int edges = 0;
  double detect_ms = 0.0;
  int detected = 0;
  double pc_log10 = 0.0;
};

std::string size_tag(int ops) {
  if (ops % 1'000'000 == 0) return std::to_string(ops / 1'000'000) + "m";
  return std::to_string(ops / 1'000) + "k";
}

/// Milliseconds of the fastest of `reps` calls of `f`.
template <typename F>
double min_ms(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const bench::Stopwatch sw;
    f();
    best = std::min(best, sw.elapsed_ms());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_scale.json");
  const bench::Stopwatch wall;

  std::printf("== bench_scale: mega-design embed/detect throughput ==\n");
  std::printf("threads: %d%s\n\n", args.threads, args.smoke ? " (smoke)" : "");

  std::optional<exec::ThreadPool> pool;
  if (args.threads > 1) pool.emplace(args.threads);
  exec::ThreadPool* pp = pool ? &*pool : nullptr;

  const crypto::Signature sig("scale-bench", "scale-bench-key-2026");

  std::vector<int> sizes{1'000, 10'000};
  if (!args.smoke) {
    sizes.push_back(100'000);
    sizes.push_back(1'000'000);
  }

  std::vector<SizeRow> rows;
  for (const int ops : sizes) {
    SizeRow row;
    row.ops = ops;
    constexpr int reps = 3;

    dfglib::MegaConfig cfg;
    cfg.name = "mega" + size_tag(ops);
    cfg.shape = dfglib::MegaShape::kLayeredDeep;
    cfg.operations = ops;
    cfg.width = 64;
    cfg.seed = 0xC0FFEEu + static_cast<std::uint64_t>(ops);
    cdfg::Graph g;
    row.gen_ms = min_ms(reps, [&] { g = dfglib::make_mega_design(cfg); });
    row.nodes = g.node_count();

    // Streaming round trip: serialize, then re-parse through the
    // line-window cursor (the >16 MiB graph-file path).
    const std::string text = cdfg::to_text(g);
    bool parsed_ok = true;
    const double parse_ms = min_ms(reps, [&] {
      std::istringstream in(text);
      auto parsed = cdfg::parse_cdfg(io::LineCursor(in), cfg.name);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bench_scale: streaming parse failed: %s\n",
                     parsed.diag().to_string().c_str());
        parsed_ok = false;
      }
    });
    if (!parsed_ok) return 1;
    row.stream_mb_per_s = parse_ms > 0.0
                              ? static_cast<double>(text.size()) / 1048576.0 /
                                    (parse_ms / 1000.0)
                              : 0.0;

    // Locality-parallel embedding: tight cones (tau 4) and a mark count
    // that grows with the design.
    wm::SchedWmOptions opts;
    opts.domain.tau = 4;
    opts.k = 5;
    const int count = std::clamp(ops / 2'000, 8, 256);
    // Embedding mutates its design: the earlier runs embed on copies,
    // the last on `g` itself, which every later phase reads.
    std::vector<wm::SchedWatermark> marks;
    row.embed_ms = 1e300;
    const auto embed = [&](cdfg::Graph& target) {
      const bench::Stopwatch sw;
      marks = wm::embed_local_watermarks_parallel(target, sig, count, opts, pp);
      row.embed_ms = std::min(row.embed_ms, sw.elapsed_ms());
    };
    for (int r = 1; r < reps; ++r) {
      cdfg::Graph copy = g;
      embed(copy);
    }
    embed(g);
    row.marks = static_cast<int>(marks.size());
    for (const wm::SchedWatermark& m : marks) {
      row.edges += static_cast<int>(m.constraints.size());
    }

    // Suspect schedule: ASAP over all edges (temporal included) of the
    // watermarked graph — every embedded constraint is honored, so the
    // detector must recover every record.
    const cdfg::TimingInfo timing =
        cdfg::compute_timing(g, -1, cdfg::EdgeFilter::all());
    sched::Schedule schedule(g);
    for (const cdfg::NodeId n : g.nodes()) {
      schedule.set_start(n, timing.asap[n.value]);
    }

    std::vector<wm::SchedRecord> records;
    records.reserve(marks.size());
    for (const wm::SchedWatermark& m : marks) {
      records.push_back(wm::SchedRecord::from(m, g));
    }
    std::vector<wm::SchedDetectionReport> reports;
    row.detect_ms = min_ms(reps, [&] {
      reports = wm::detect_sched_watermarks(g, schedule, sig, records, pp);
    });
    for (const wm::SchedDetectionReport& r : reports) {
      if (r.detected()) ++row.detected;
    }
    if (row.detected != row.marks) {
      std::fprintf(stderr, "bench_scale: detected %d of %d records at %d ops\n",
                   row.detected, row.marks, ops);
      return 1;
    }

    row.pc_log10 = wm::sched_pc_auto(g, marks).log10_pc;
    rows.push_back(row);
  }

  bench::Table out({"ops", "nodes", "gen ms", "stream MB/s", "embed ms",
                    "marks", "edges", "detect ms", "log10 Pc"});
  for (const SizeRow& r : rows) {
    out.add_row({std::to_string(r.ops), std::to_string(r.nodes),
                 bench::fmt("%.1f", r.gen_ms),
                 bench::fmt("%.1f", r.stream_mb_per_s),
                 bench::fmt("%.1f", r.embed_ms), std::to_string(r.marks),
                 std::to_string(r.edges), bench::fmt("%.1f", r.detect_ms),
                 bench::fmt("%.2f", r.pc_log10)});
  }
  out.print();

  const auto ops_per_s = [](int ops, double ms) {
    return ms > 0.0 ? 1000.0 * static_cast<double>(ops) / ms : 0.0;
  };
  bench::JsonObject json;
  json.add("bench", std::string("scale"));
  json.add("threads", args.threads);
  json.add("sizes", static_cast<long long>(rows.size()));
  const SizeRow& top = rows.back();
  json.add("max_ops", top.ops);
  json.add("embed_ops_per_s", ops_per_s(top.ops, top.embed_ms));
  json.add("detect_ops_per_s", ops_per_s(top.ops, top.detect_ms));
  json.add("stream_parse_mb_per_s", top.stream_mb_per_s);
  for (const SizeRow& r : rows) {
    const std::string tag = size_tag(r.ops);
    json.add("embed_ops_per_s_" + tag, ops_per_s(r.ops, r.embed_ms));
    json.add("detect_ops_per_s_" + tag, ops_per_s(r.ops, r.detect_ms));
    json.add("stream_parse_mb_per_s_" + tag, r.stream_mb_per_s);
  }
  json.add("wall_ms", wall.elapsed_ms());
  bench::attach_obs(json, args);
  json.write(args.json_path);
  return 0;
}
