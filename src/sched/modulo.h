// modulo.h — periodic (modulo) scheduling of marked graphs.
//
// A marked graph (homogeneous SDF: token-carrying back-edges, see
// cdfg::Edge::tokens) executes forever; a *periodic* schedule starts
// iteration i of every operation at start(n) + i * II, where II is the
// initiation interval.  An edge with k initial tokens then constrains
//
//     start(dst) + k * II >= start(src) + delay(src)
//
// — same-iteration precedence for k == 0, loop-carried dependence for
// k > 0.  The scheduler is Rau's iterative modulo scheduling (IMS,
// MICRO-27 1994): II search upward from MinII = max(ResMII, RecMII),
// with a modulo reservation table (MRT) per candidate II and a
// budgeted schedule/evict loop.
//
//   * ResMII — resource-minimum II: for each limited unit class,
//     ceil(total occupancy / unit count), where occupancy follows the
//     flat verifier's model (pipelined units: 1 issue slot; otherwise
//     the op's full d_max latency).
//   * RecMII — recurrence-minimum II: the smallest II for which no
//     cycle has positive weight under w(e) = delay(src) - II * tokens
//     (binary search; each probe is a longest-path fixed point).
//
// Delays are the dynamically bounded model's upper bounds d_max, so a
// legal periodic schedule stays legal under every delay realization.
#pragma once

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/resources.h"
#include "sched/schedule.h"

namespace lwm::sched {

struct ModuloOptions {
  ResourceSet resources = ResourceSet::unlimited();
  /// Which edges constrain the periodic schedule.  The default sees the
  /// full marked graph — token-carrying back-edges included.
  cdfg::EdgeFilter filter = cdfg::EdgeFilter::periodic();
  /// Pipelined functional units (see ListScheduleOptions).
  bool pipelined_units = false;
  /// II search range.  min_ii < 0 starts at the computed MinII; max_ii
  /// < 0 caps at the acyclic-skeleton list-schedule length (an II that
  /// is always feasible).
  int min_ii = -1;
  int max_ii = -1;
};

struct ModuloResult {
  Schedule schedule;  ///< iteration-0 start steps (flat starts)
  int ii = 0;         ///< achieved initiation interval
  int res_mii = 0;
  int rec_mii = 0;
  int min_ii = 0;     ///< max(res_mii, rec_mii), floor of the II search
  int length = 0;     ///< flat makespan of one iteration (schedule span)

  /// True when the II search closed at the theoretical floor.
  [[nodiscard]] bool achieved_min_ii() const noexcept { return ii == min_ii; }
};

/// Periodic schedule of `g` (every live node, pseudo-ops included) at
/// the smallest II the budgeted search reaches.  Works on plain DAGs
/// too (no token edges: RecMII degenerates to 1).  Throws
/// std::invalid_argument if a limited class has zero units but the
/// graph needs one, or std::runtime_error if a token-free cycle slips
/// through the filter (the graph is not a valid marked graph).
[[nodiscard]] ModuloResult modulo_schedule(const cdfg::Graph& g,
                                           const ModuloOptions& opts = {});

/// Checks that `s` is a legal periodic schedule of `g` at interval
/// `ii`: every executable node scheduled at step >= 0; every accepted
/// edge satisfies start(dst) + ii * tokens >= start(src) + delay(src);
/// and no MRT slot (start % ii, over each op's occupancy) exceeds a
/// limited class's unit count.
[[nodiscard]] ScheduleCheck verify_periodic_schedule(
    const cdfg::Graph& g, const Schedule& s, int ii,
    cdfg::EdgeFilter filter = cdfg::EdgeFilter::periodic(),
    const ResourceSet& res = ResourceSet::unlimited(),
    bool pipelined_units = false);

/// The recurrence-minimum II of `g` under `filter` (1 when the filtered
/// graph has no token-carrying cycle).  Exposed for tests and benches.
[[nodiscard]] int recurrence_min_ii(const cdfg::Graph& g,
                                    cdfg::EdgeFilter filter = cdfg::EdgeFilter::periodic());

/// The resource-minimum II of `g` under `res` (1 when unlimited).
[[nodiscard]] int resource_min_ii(const cdfg::Graph& g, const ResourceSet& res,
                                  bool pipelined_units = false);

}  // namespace lwm::sched
