// force_directed.h — time-constrained force-directed scheduling.
//
// Paulin & Knight's FDS (IEEE TCAD 1989) — the heuristic scheduler the
// paper cites as the representative approach [14].  Given a latency
// bound, FDS places one operation per iteration at the control step with
// the lowest "force", balancing the expected concurrency of each
// functional-unit class and thereby minimizing the resource (module)
// count.  It honors temporal watermark edges like any other precedence,
// which is exactly how the watermarking protocol stays transparent to the
// synthesis tool.
//
// One implementation lives here, force_directed_schedule(), the
// incremental engine: windows come from a cdfg::TimingCache (only the
// pinned cone re-relaxed per iteration) and per-node force vectors are
// cached across iterations, recomputed — optionally in parallel — only
// when the last placement touched the node's window, a neighbor's
// window, or the distribution graph inside the steps the node reads.
// Its oracle, the original from-scratch O(iterations x nodes x steps)
// loop force_directed_schedule_reference(), is test support
// (tests/sched/fds_reference.h): sched_test and delay_model_test check
// the engine bit-identical to it at every thread count, and bench_micro
// times it as the fds_speedup baseline.
#pragma once

#include <cstdint>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/schedule.h"

namespace lwm::exec {
class ThreadPool;
}  // namespace lwm::exec

namespace lwm::sched {

/// Work counters of one force_directed_schedule() run, reported through
/// FdsOptions::stats.  Obs-independent: tests and benches read these even
/// when the build compiles LWM_OBS out.
struct FdsStats {
  std::uint64_t refills = 0;     ///< force vectors recomputed
  std::uint64_t cache_hits = 0;  ///< force vectors reused as-is
  std::uint64_t suppressed = 0;  ///< refills skipped by the eps_dg threshold
  std::uint64_t iterations = 0;  ///< placements (== executable node count)
};

/// Recommended distribution-graph drift threshold for the approximate
/// mode (the benches' default): large enough to suppress the refill
/// cascades caused by far-away probability nudges (>= 5x fewer refills
/// on the MediaBench apps), small enough that schedule quality (latency
/// unchanged, quadratic DG cost within 1%) stays at parity on every
/// dfglib kernel and MediaBench app (tests/sched/fds_eps_test.cpp).
inline constexpr double kDefaultEpsDg = 0.25;

struct FdsOptions {
  /// Latency bound (control steps). -1 means "critical path".
  int latency = -1;
  cdfg::EdgeFilter filter = cdfg::EdgeFilter::all();
  /// Optional pool for the force-recompute fan-out; null runs serially.
  /// The schedule is bit-identical at every concurrency.
  exec::ThreadPool* pool = nullptr;
  /// Distribution-graph drift threshold for cache invalidation.  0 (the
  /// default) refills a cached force vector whenever any DG value it
  /// reads changed at all — exact, bit-identical to the reference.  > 0
  /// lets a vector survive while the accumulated |ΔDG| over its read
  /// set since its last fill stays within the threshold: bounded-drift
  /// approximate schedules with far fewer refills.  Dimensionless — the
  /// engine scales it by the design's average DG density (occupancy
  /// mass / latency), so the same value means the same relative drift
  /// on a 20-op kernel and a 1755-op MediaBench app.
  double eps_dg = 0.0;
  /// Optional work counters, written once at return.
  FdsStats* stats = nullptr;
};

/// Schedules every executable node of `g` within the latency bound.
/// Throws std::invalid_argument if the bound is below the critical path.
[[nodiscard]] Schedule force_directed_schedule(const cdfg::Graph& g,
                                               const FdsOptions& opts = {});

}  // namespace lwm::sched
