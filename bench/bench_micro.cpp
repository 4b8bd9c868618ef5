// bench_micro — google-benchmark microbenchmarks of the substrates.
//
// Not a paper table: this is the engineering-throughput companion that
// shows the library scales to the Table I/II problem sizes with headroom
// (scheduling, matching, carving, detection scans, RC4).
//
// The custom main() first times one watermark round trip (embed →
// schedule → strip → detect) and writes BENCH_micro.json, then hands
// the remaining argv to google-benchmark.  `--smoke` shrinks the round
// trip and filters the suite down to one fast benchmark.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_io.h"
#include "cdfg/analysis.h"
#include "crypto/signature.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "sched/enumerate.h"
#include "sched/list_sched.h"
#include "tmatch/cover.h"
#include "vliw/vliw_sched.h"
#include "wm/detector.h"
#include "wm/sched_constraints.h"

using namespace lwm;

namespace {

cdfg::Graph dag(int n) {
  return dfglib::make_layered_dag("bm" + std::to_string(n), n, 10, {}, 99);
}

// A pseudo-random executable root of `g` (which has some) from `stream`.
cdfg::NodeId pick_root(const cdfg::Graph& g, crypto::Bitstream& stream) {
  std::vector<cdfg::NodeId> ops;
  for (const cdfg::NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  return ops[stream.next_uint(static_cast<std::uint32_t>(ops.size()))];
}

void BM_ListSchedule(benchmark::State& state) {
  const cdfg::Graph g = dag(static_cast<int>(state.range(0)));
  sched::ListScheduleOptions opts;
  opts.resources = sched::ResourceSet::vliw4();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::list_schedule(g, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(g.operation_count()));
}
BENCHMARK(BM_ListSchedule)->Arg(200)->Arg(800)->Arg(1755);

void BM_VliwPack(benchmark::State& state) {
  const cdfg::Graph g = dfglib::make_mediabench_app({"PGP", 1755});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vliw::vliw_schedule(g, vliw::Machine::paper_machine()));
  }
  state.SetItemsProcessed(state.iterations() * 1755);
}
BENCHMARK(BM_VliwPack);

void BM_Timing(benchmark::State& state) {
  const cdfg::Graph g = dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdfg::compute_timing(g));
  }
}
BENCHMARK(BM_Timing)->Arg(800)->Arg(1755);

void BM_DomainCarve(benchmark::State& state) {
  const cdfg::Graph g = dag(800);
  const crypto::Signature sig("author", "bm-key");
  crypto::Bitstream roots = sig.stream("roots");
  const cdfg::NodeId root = pick_root(g, roots);
  wm::DomainKey key;
  key.tau = 6;
  const wm::FaninView view = wm::FaninView::build(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wm::select_domain(view, root, sig.stream(wm::DomainKey::kCarveTag), key));
  }
}
BENCHMARK(BM_DomainCarve);

void BM_DetectionScan(benchmark::State& state) {
  cdfg::Graph g = dfglib::make_dsp_design("bm_det", 14, 300, 11);
  const crypto::Signature sig("author", "bm-key");
  wm::SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.epsilon = 0.3;
  const auto marks = wm::embed_local_watermarks(g, sig, 1, opts);
  const sched::Schedule s = sched::list_schedule(g);
  g.strip_temporal_edges();
  if (marks.empty()) {
    state.SkipWithError("no watermark embedded");
    return;
  }
  const wm::SchedRecord rec = wm::SchedRecord::from(marks.front(), g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wm::detect_sched_watermark(g, s, sig, rec));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(g.operation_count()));
}
BENCHMARK(BM_DetectionScan);

void BM_EnumerateSchedules(benchmark::State& state) {
  const cdfg::Graph g = dfglib::make_dsp_design("bm_enum", 8, 24, 13);
  const cdfg::TimingInfo timing =
      cdfg::compute_timing(g, 10, cdfg::EdgeFilter::specification());
  std::vector<cdfg::NodeId> ops;
  for (const cdfg::NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::count_schedules(g, timing, ops, {}, 5'000'000));
  }
}
BENCHMARK(BM_EnumerateSchedules);

void BM_TemplateCover(benchmark::State& state) {
  const cdfg::Graph g = dfglib::make_dsp_design(
      "bm_cover", 20, static_cast<int>(state.range(0)), 15);
  const tmatch::TemplateLibrary lib = tmatch::TemplateLibrary::standard();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmatch::greedy_cover(g, lib));
  }
}
BENCHMARK(BM_TemplateCover)->Arg(100)->Arg(354)->Arg(1082);

void BM_Rc4Keystream(benchmark::State& state) {
  const std::vector<std::uint8_t> key = {'b', 'm', '-', 'k', 'e', 'y'};
  for (auto _ : state) {
    crypto::Rc4 rc4(key);
    benchmark::DoNotOptimize(rc4.keystream(4096));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Rc4Keystream);

}  // namespace

int main(int argc, char** argv) {
  // Our flags are stripped before google-benchmark sees the rest; the
  // shared strict parser rejects a valueless or non-numeric --threads
  // instead of atoi'ing argv[argc] or garbage.
  std::vector<std::string> bm_extra;
  auto parsed =
      bench::try_parse_args(argc, argv, "BENCH_micro.json", &bm_extra);
  if (!parsed) {
    std::fprintf(stderr, "%s: error: %s (argv[%d])\n", argv[0],
                 parsed.diag().message.c_str(), parsed.diag().line);
    return 2;
  }
  const bench::Args args = std::move(parsed).value();
  std::vector<char*> bm_argv{argv[0]};
  for (std::string& s : bm_extra) bm_argv.push_back(s.data());
#if LWM_OBS_ENABLED
  if (!args.trace_path.empty()) obs::Registry::instance().enable_tracing(true);
#else
  if (!args.trace_path.empty()) {
    std::fprintf(stderr, "warning: --trace ignored (built with LWM_OBS=OFF)\n");
  }
#endif
  std::string smoke_filter = "--benchmark_filter=BM_Rc4Keystream";
  if (args.smoke) bm_argv.push_back(smoke_filter.data());

  const bench::Stopwatch wall;

  // Watermark round trip: embed → schedule → strip → detect on a DSP
  // design.  Small, but it keeps the wm layer in the micro artifact (and
  // in the --trace output).
  const crypto::Signature sig("bench-micro", "bench-micro-key");
  cdfg::Graph wmg =
      dfglib::make_dsp_design("bm_wm", 14, args.smoke ? 120 : 300, 11);
  wm::SchedWmOptions wopts;
  wopts.domain.tau = 5;
  wopts.k = 3;
  wopts.epsilon = 0.3;
  const bench::Stopwatch wm_watch;
  const auto marks = wm::embed_local_watermarks(wmg, sig, 1, wopts);
  double wm_roundtrip_ms = -1.0;
  if (!marks.empty()) {
    const sched::Schedule wms = sched::list_schedule(wmg);
    wmg.strip_temporal_edges();
    const wm::SchedRecord record = wm::SchedRecord::from(marks.front(), wmg);
    const auto report = wm::detect_sched_watermark(wmg, wms, sig, record);
    wm_roundtrip_ms = wm_watch.elapsed_ms();
    std::printf("WM %s embed+detect round trip: %.2f ms (detected: %s)\n\n",
                wmg.name().c_str(), wm_roundtrip_ms,
                report.detected() ? "yes" : "no");
    if (!report.detected()) return 1;
  }

  bench::JsonObject json;
  json.add("bench", std::string("micro"));
  json.add("threads", args.threads);
  json.add("wm_roundtrip_ms", wm_roundtrip_ms);
  json.add("wall_ms", wall.elapsed_ms());
  bench::attach_obs(json, args);
  if (!json.write(args.json_path)) return 1;

  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
