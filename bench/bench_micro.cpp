// bench_micro — google-benchmark microbenchmarks of the substrates.
//
// Not a paper table: this is the engineering-throughput companion that
// shows the library scales to the Table I/II problem sizes with headroom
// (scheduling, matching, carving, detection scans, RC4).
//
// The custom main() first times the headline comparison — reference
// (from-scratch) force-directed scheduling vs the incremental engine on
// the largest MediaBench DFG (PGP, 1755 ops) — and the parallel-vs-
// serial branch & bound, writes BENCH_micro.json, then hands the
// remaining argv to google-benchmark.  `--smoke` shrinks the headline to
// a synthetic DAG and filters the suite down to one fast benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_io.h"
#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "crypto/signature.h"
#include "dfglib/iir4.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "fds_reference.h"
#include "sched/bnb.h"
#include "sched/enumerate.h"
#include "sched/force_directed.h"
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

void BM_ForceDirected(benchmark::State& state) {
  const cdfg::Graph g =
      dfglib::make_dsp_design("bm_fds", 12, static_cast<int>(state.range(0)), 7);
  sched::FdsOptions opts;
  opts.latency = 18;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::force_directed_schedule(g, opts));
  }
}
BENCHMARK(BM_ForceDirected)->Arg(40)->Arg(120);

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
  for (auto _ : state) {
    benchmark::DoNotOptimize(wm::select_domain(g, root, sig, key));
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
  sched::EnumerationOptions opts;
  opts.latency = 10;
  opts.limit = 5'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::count_schedules(g, {}, {}, opts));
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
  bench::Args args = std::move(parsed).value();
  // Unlike the other benches this one defaults to 8 threads (the
  // headline is the 8-thread-vs-serial comparison), so only honor
  // args.threads when the flag was actually given.
  bool threads_given = false;
  for (int i = 1; i < argc; ++i) {
    threads_given = threads_given || std::strcmp(argv[i], "--threads") == 0;
  }
  const int threads = threads_given ? args.threads : 8;
  const bool smoke = args.smoke;
  const std::string json_path = args.json_path;
  const std::string trace_path = args.trace_path;
  std::vector<char*> bm_argv{argv[0]};
  for (std::string& s : bm_extra) bm_argv.push_back(s.data());
#if LWM_OBS_ENABLED
  if (!trace_path.empty()) obs::Registry::instance().enable_tracing(true);
#else
  if (!trace_path.empty()) {
    std::fprintf(stderr, "warning: --trace ignored (built with LWM_OBS=OFF)\n");
  }
#endif
  std::string smoke_filter = "--benchmark_filter=BM_Rc4Keystream";
  if (smoke) bm_argv.push_back(smoke_filter.data());

  const bench::Stopwatch wall;
  exec::ThreadPool pool(threads);

  // Headline: FDS on the largest MediaBench DFG, at the ~10%-slack
  // latency the benches use — reference recompute vs incremental engine.
  const cdfg::Graph big =
      smoke ? dag(120) : dfglib::make_mediabench_app({"PGP", 1755});
  sched::FdsOptions fopts;
  const int cp = cdfg::critical_path_length(big);
  fopts.latency = cp + std::max(1, cp / 10);
  const bench::Stopwatch ref_watch;
  const sched::Schedule ref = sched::force_directed_schedule_reference(big, fopts);
  const double fds_ref_ms = ref_watch.elapsed_ms();
  fopts.pool = &pool;
  sched::FdsStats fds_exact_stats;
  fopts.stats = &fds_exact_stats;
  const bench::Stopwatch inc_watch;
  const sched::Schedule inc = sched::force_directed_schedule(big, fopts);
  const double fds_inc_ms = inc_watch.elapsed_ms();
  for (const cdfg::NodeId n : big.nodes()) {
    if (cdfg::is_executable(big.node(n).kind) &&
        ref.start_of(n) != inc.start_of(n)) {
      std::fprintf(stderr, "FDS mismatch at %s\n", big.node(n).name.c_str());
      return 1;
    }
  }
  std::printf("FDS %s (%zu ops, latency %d): reference %.1f ms, "
              "incremental (%d threads) %.1f ms, speedup %.2fx\n",
              big.name().c_str(), big.operation_count(), fopts.latency,
              fds_ref_ms, threads, fds_inc_ms, fds_ref_ms / fds_inc_ms);

  // Same engine at the default drift threshold.  The obs registry is
  // reset first so the fds/* counters in BENCH_micro.json describe the
  // default-eps_dg configuration (the exact run's counts live on in the
  // fds_refills_exact field below).
#if LWM_OBS_ENABLED
  obs::Registry::instance().reset();
#endif
  fopts.eps_dg = sched::kDefaultEpsDg;
  sched::FdsStats fds_eps_stats;
  fopts.stats = &fds_eps_stats;
  const bench::Stopwatch eps_watch;
  const sched::Schedule eps = sched::force_directed_schedule(big, fopts);
  const double fds_eps_ms = eps_watch.elapsed_ms();
  fopts.eps_dg = 0.0;
  fopts.stats = nullptr;
  if (!sched::verify_schedule(big, eps, cdfg::EdgeFilter::all(),
                              sched::ResourceSet::unlimited(), fopts.latency)
           .ok) {
    std::fprintf(stderr, "FDS eps_dg schedule failed verification\n");
    return 1;
  }
  std::printf("FDS %s eps_dg=%.3g: %.1f ms, speedup %.2fx, refills %llu -> "
              "%llu (%.1fx fewer), length %d vs %d exact\n",
              big.name().c_str(), sched::kDefaultEpsDg, fds_eps_ms,
              fds_ref_ms / fds_eps_ms,
              static_cast<unsigned long long>(fds_exact_stats.refills),
              static_cast<unsigned long long>(fds_eps_stats.refills),
              static_cast<double>(fds_exact_stats.refills) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, fds_eps_stats.refills)),
              eps.length(big), inc.length(big));

  // Same comparison under the dyno-style table delay model: the
  // annotated copy carries bounded [d_min, d_max] intervals, FDS
  // schedules against d_max, and the incremental engine must stay
  // bit-identical to the reference there too.  Gives the README table
  // its delay-model column.
  cdfg::Graph big_table = big;
  const cdfg::DelayModel table_model = cdfg::DelayModel::dyno(16);
  table_model.annotate(big_table);
  sched::FdsOptions topts;
  const int cp_table = cdfg::critical_path_length(big_table);
  topts.latency = cp_table + std::max(1, cp_table / 10);
  const bench::Stopwatch tref_watch;
  const sched::Schedule tref =
      sched::force_directed_schedule_reference(big_table, topts);
  const double fds_table_ref_ms = tref_watch.elapsed_ms();
  topts.pool = &pool;
  const bench::Stopwatch tinc_watch;
  const sched::Schedule tinc = sched::force_directed_schedule(big_table, topts);
  const double fds_table_inc_ms = tinc_watch.elapsed_ms();
  for (const cdfg::NodeId n : big_table.nodes()) {
    if (cdfg::is_executable(big_table.node(n).kind) &&
        tref.start_of(n) != tinc.start_of(n)) {
      std::fprintf(stderr, "FDS mismatch under %s at %s\n",
                   table_model.describe().c_str(),
                   big_table.node(n).name.c_str());
      return 1;
    }
  }
  std::printf("FDS %s %s (latency %d): reference %.1f ms, incremental "
              "%.1f ms, speedup %.2fx\n\n",
              big_table.name().c_str(), table_model.describe().c_str(),
              topts.latency, fds_table_ref_ms, fds_table_inc_ms,
              fds_table_ref_ms / fds_table_inc_ms);

  // Branch & bound: serial vs first-level-parallel on the IIR filter.
  const cdfg::Graph iir = dfglib::iir4_parallel();
  sched::BnbOptions bopts;
  bopts.resources = sched::ResourceSet::datapath(2, 2);
  const bench::Stopwatch bnb_serial_watch;
  const sched::BnbResult bnb_serial = sched::bnb_min_latency(iir, bopts);
  const double bnb_serial_ms = bnb_serial_watch.elapsed_ms();
  bopts.pool = &pool;
  const bench::Stopwatch bnb_par_watch;
  const sched::BnbResult bnb_par = sched::bnb_min_latency(iir, bopts);
  const double bnb_par_ms = bnb_par_watch.elapsed_ms();
  std::printf("B&B iir4 datapath(2,2): serial %.1f ms, %d threads %.1f ms "
              "(latency %d == %d)\n\n",
              bnb_serial_ms, threads, bnb_par_ms, bnb_serial.latency,
              bnb_par.latency);

  // Watermark round trip: embed → schedule → strip → detect on a DSP
  // design.  Small, but it keeps the wm layer in the micro artifact (and
  // in the --trace output) alongside the scheduler substrates.
  const crypto::Signature sig("bench-micro", "bench-micro-key");
  cdfg::Graph wmg =
      dfglib::make_dsp_design("bm_wm", 14, smoke ? 120 : 300, 11);
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
  json.add("threads", threads);
  json.add("fds_graph", big.name());
  json.add("fds_ops", static_cast<long long>(big.operation_count()));
  json.add("fds_latency", fopts.latency);
  json.add("fds_ref_ms", fds_ref_ms);
  json.add("fds_inc_ms", fds_inc_ms);
  json.add("fds_speedup", fds_ref_ms / fds_inc_ms);
  json.add("fds_refills_exact", static_cast<long long>(fds_exact_stats.refills));
  json.add("fds_eps_dg", sched::kDefaultEpsDg);
  json.add("fds_eps_ms", fds_eps_ms);
  json.add("fds_eps_speedup", fds_ref_ms / fds_eps_ms);
  json.add("fds_refills_eps", static_cast<long long>(fds_eps_stats.refills));
  json.add("fds_refills_suppressed",
           static_cast<long long>(fds_eps_stats.suppressed));
  json.add("fds_eps_length", eps.length(big));
  json.add("fds_exact_length", inc.length(big));
  json.add("fds_table_model", table_model.describe());
  json.add("fds_table_latency", topts.latency);
  json.add("fds_table_ref_ms", fds_table_ref_ms);
  json.add("fds_table_inc_ms", fds_table_inc_ms);
  json.add("fds_table_speedup", fds_table_ref_ms / fds_table_inc_ms);
  json.add("bnb_latency", bnb_par.latency);
  json.add("bnb_serial_ms", bnb_serial_ms);
  json.add("bnb_parallel_ms", bnb_par_ms);
  json.add("wm_roundtrip_ms", wm_roundtrip_ms);
  json.add("wall_ms", wall.elapsed_ms());
  bench::Args obs_args;
  obs_args.trace_path = trace_path;
  bench::attach_obs(json, obs_args);
  if (!json.write(json_path)) return 1;

  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
