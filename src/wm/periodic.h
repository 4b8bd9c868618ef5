// periodic.h — watermarking and P_c estimation for periodic schedules.
//
// A marked graph scheduled at initiation interval II admits many
// periodic schedules, exactly as a DAG admits many flat ones — so the
// watermark protocol transfers: temporal extra-edges constrain which
// periodic schedules the marked flow can produce, and P_c is the
// probability an unwatermarked flow coincidentally satisfies them.
// The embedded temporal edge src -> dst is *taken modulo II*: it
// constrains the flat (iteration-0) start offsets, start(dst) >=
// start(src) + delay(src), which every iteration then repeats at
// + i * II.  sched::modulo_schedule honors temporal edges with zero
// tokens in precisely this flat sense, so the existing detector's
// flat-start check recovers periodic watermarks unchanged.
//
// What changes is the *counting*: the space of alternatives is the set
// of periodic schedules legal at II, whose windows and separations are
// token-weighted (w(e) = delay(src) - II * tokens, possibly negative —
// a loop-carried edge gives slack instead of taking it).  This header
// provides the periodic analogues of compute_timing, psi counting, and
// the exact / Poisson P_c estimators, and wm::sched_pc_auto dispatches
// to them when SchedPcAutoOptions::ii > 0.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/enumerate.h"
#include "wm/sched_constraints.h"

namespace lwm::wm {

struct PcEstimate;  // pc.h

/// Periodic ASAP/ALAP analogue: flat start windows legal at interval
/// `ii` within a flat span bound.
struct PeriodicTiming {
  std::vector<int> estart;  ///< earliest flat start (indexed by NodeId::value)
  std::vector<int> lstart;  ///< latest flat start within `span`
  int ii = 0;
  int span = 0;            ///< flat makespan bound used for lstart
  int critical_span = 0;   ///< minimum feasible flat makespan at `ii`

  [[nodiscard]] int slack(cdfg::NodeId n) const {
    return lstart[n.value] - estart[n.value];
  }
};

/// Computes periodic start windows at interval `ii` under `filter`
/// (tokens included by default).  `span` < 0 uses the minimum feasible
/// flat makespan; otherwise it must be >= that minimum (throws
/// std::invalid_argument).  Throws std::runtime_error when `ii` is
/// below the recurrence bound (some cycle has positive weight — no
/// periodic schedule exists at all).
[[nodiscard]] PeriodicTiming compute_periodic_timing(
    const cdfg::Graph& g, int ii, int span = -1,
    cdfg::EdgeFilter filter = cdfg::EdgeFilter::periodic());

/// The edge filter periodic counting uses: the unwatermarked marked
/// graph — specification edges plus loop-carried token edges, temporal
/// (watermark) edges excluded, exactly as specification() excludes them
/// in the flat counters.
[[nodiscard]] cdfg::EdgeFilter periodic_counting_filter();

// Resident windows.  The periodic estimators below read the counting
// windows compute_periodic_timing(g, ii, -1, periodic_counting_filter())
// and each takes them as an optional trailing `windows` argument: null
// computes them per call; given, they must come from a graph with the
// same live nodes, NodeIds, delays and non-temporal edges as `g`, at the
// same `ii`.  Results are bit-identical either way.

/// psi counts over the periodic schedule space at interval `ii`:
/// psi_n — periodic schedules of the watermark's subtree (executable
/// members, flat starts within their periodic windows, all pairwise
/// token-weighted separations honored); psi_w — those additionally
/// satisfying every temporal constraint of `wm` in the flat (modulo-II)
/// sense.  Saturates at `opts.limit`.  `windows` is read only when
/// `opts.latency` < 0 (any other span bound needs its own windows).
struct PeriodicPsi {
  std::uint64_t psi_w = 0;
  std::uint64_t psi_n = 0;
  bool saturated = false;
};
[[nodiscard]] PeriodicPsi periodic_psi_counts(
    const cdfg::Graph& g, const SchedWatermark& wm, int ii,
    const sched::EnumerationOptions& opts = {},
    const PeriodicTiming* windows = nullptr);

/// Exact periodic P_c of one watermark: psi_w / psi_n by enumeration;
/// on saturation (or an empty denominator) falls back to the periodic
/// Poisson model below.
[[nodiscard]] PcEstimate sched_pc_periodic(
    const cdfg::Graph& g, const SchedWatermark& wm, int ii,
    const sched::EnumerationOptions& opts = {},
    const PeriodicTiming* windows = nullptr);

/// Periodic Poisson large-design model: per temporal edge, the window-
/// model order probability computed over *periodic* windows (the same
/// closed form as the flat model, fed with PeriodicTiming), and
/// P_c = e^-lambda with lambda = sum (1 - p_i).
[[nodiscard]] PcEstimate sched_pc_periodic_poisson(
    const cdfg::Graph& g, std::span<const SchedWatermark> marks, int ii,
    const PeriodicTiming* windows = nullptr);

}  // namespace lwm::wm
