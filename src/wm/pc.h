// pc.h — coincidence-probability (proof-of-authorship) estimation.
//
// The strength of a watermark is 1 - P_c, where P_c is the probability
// that an unwatermarked flow coincidentally produces a solution
// satisfying the hidden constraints.
//
// Scheduling (paper §IV-A):  P_c ≈ Π_i psi_W(e_i)/psi_N(e_i).  For small
// localities both counts come from exhaustive enumeration (the 15/166 of
// the motivational example); at scale, per-edge ratios come from an
// independence model over the operations' ASAP–ALAP windows (the paper
// assumes Poisson-distributed window positions; we use the windows
// themselves, uniform and independent — same spirit, fully determined by
// the graph).
//
// Template matching (paper §IV-B):  P_c ≈ Π_{i=1..Z} Solutions(m_i)^{-1},
// where Solutions(m) counts the distinct matchings covering m's nodes.
#pragma once

#include <span>

#include "cdfg/graph.h"
#include "sched/enumerate.h"
#include "tmatch/matcher.h"
#include "tmatch/template_lib.h"
#include "wm/sched_constraints.h"
#include "wm/tm_constraints.h"

namespace lwm::exec {
class ThreadPool;
}

namespace lwm::wm {

struct PcEstimate {
  double log10_pc = 0.0;  ///< log10 of the coincidence probability
  bool exact = false;     ///< true if from exhaustive enumeration
  bool degenerate = false;  ///< true if some factor was 0 or uncountable
};

// Resident windows.  The flat estimators below read the specification
// timing of `g` — compute_timing(g, -1, EdgeFilter::specification()) —
// and each takes it as an optional trailing `spec_timing` argument.
// When null they compute it themselves (one O(V+E) pass per call); when
// given it must be the specification timing of a graph with the same
// live nodes, NodeIds and delays as `g`.  Temporal edges may differ:
// the specification filter ignores them, so the windows of a pristine
// design serve every marked copy of it (serve::StoredDesign passes its
// resident PlanContext::timing).  Results are bit-identical either way.

/// Exact P_c of one scheduling watermark by exhaustive enumeration over
/// the executable nodes of the carved subtree: schedules satisfying all
/// constraints / all schedules.  Saturates at `opts.limit`; on saturation
/// falls back to the window model (exact == false).  With `spec_timing`
/// the enumeration's default latency bound (the critical path) and the
/// fallback both read it instead of re-timing the graph.
[[nodiscard]] PcEstimate sched_pc_exact(
    const cdfg::Graph& g, const SchedWatermark& wm,
    const sched::EnumerationOptions& opts = {},
    const cdfg::TimingInfo* spec_timing = nullptr);

/// Window-model P_c of a set of scheduling watermarks: per temporal edge
/// e(src -> dst), the probability that independent uniform draws from the
/// two [ASAP, ALAP] windows put src's finish at or before dst's start;
/// log-probabilities sum over all edges of all watermarks.
[[nodiscard]] PcEstimate sched_pc_window_model(
    const cdfg::Graph& g, std::span<const SchedWatermark> marks,
    const cdfg::TimingInfo* spec_timing = nullptr);

/// Monte-Carlo P_c: samples `trials` random feasible schedules of the
/// *unconstrained* specification (per node, a uniform start in its
/// dynamic [earliest-from-predecessors, ALAP] window, walked in
/// topological order — every draw extends to a complete feasible
/// schedule by the ALAP invariant) and reports the fraction satisfying
/// every constraint of every mark, Laplace-smoothed so a zero count
/// yields a finite log.  This is the estimator to quote when the exact
/// enumeration is intractable and the independence assumption of the
/// window model is in doubt.
///
/// Trials are drawn in chunks of roughly 512 whose boundaries are a pure
/// function of `trials`, each chunk's RNG seeded from (seed, chunk start
/// offset); with a pool the chunks run across its lanes.  Because the
/// chunk layout doesn't depend on the pool, the estimate is bit-identical
/// at every thread count (including serial).
[[nodiscard]] PcEstimate sched_pc_sampled(const cdfg::Graph& g,
                                          std::span<const SchedWatermark> marks,
                                          int trials, std::uint64_t seed,
                                          int latency = -1,
                                          exec::ThreadPool* pool = nullptr);

/// Poisson large-design model (the paper's own large-N approximation):
/// the number of violated temporal constraints in a random schedule is
/// treated as Poisson with mean lambda = sum_i (1 - p_i), where p_i is
/// the window-model order probability of edge i, so P_c = P(0
/// violations) = e^-lambda and log10_pc = -lambda / ln 10.  Compared to
/// the full window model this never multiplies per-edge probabilities —
/// only the O(E_wm) lambda sum and one O(V+E) timing pass (none with
/// `spec_timing`) — and it is the estimator sched_pc_auto switches to
/// above its node threshold, where exhaustive psi enumeration is
/// hopeless.  For edges with high
/// p_i the two agree to first order (e^-(1-p) ~ p near 1); an
/// unsatisfiable edge (p_i = 0) adds a full expected violation and marks
/// the estimate degenerate.
[[nodiscard]] PcEstimate sched_pc_poisson(
    const cdfg::Graph& g, std::span<const SchedWatermark> marks,
    const cdfg::TimingInfo* spec_timing = nullptr);

struct SchedPcAutoOptions {
  /// Above this many graph nodes, exhaustive psi enumeration is skipped
  /// outright in favor of the Poisson model.  At or below it, the exact
  /// path runs (with its own saturation fallback).  2048 keeps every
  /// design of the original experiment suite (<= ~1.8k ops) on the exact
  /// path while mega-designs go straight to the closed form.
  std::size_t poisson_node_threshold = 2048;
  sched::EnumerationOptions enumeration{};
  /// Initiation interval of a periodic (marked-graph) schedule.  0 (the
  /// default) selects the flat estimators; ii > 0 counts *periodic*
  /// schedules instead — sched_pc_periodic below the threshold,
  /// sched_pc_periodic_poisson above (wm/periodic.h) — so P_c stays
  /// meaningful when the watermark was embedded modulo II.
  int ii = 0;
};

/// Size-dispatched P_c of a set of scheduling watermarks, one mark at a
/// time: sched_pc_exact below the threshold, sched_pc_poisson above.
/// The per-mark estimates combine in mark order — log10_pc summed from
/// +0.0, `exact` the AND over marks (false for an empty span),
/// `degenerate` the OR — so the result is a pure function of the
/// per-mark estimates.
///
/// The windows are built at most once per call, not once per mark: the
/// flat path reads `spec_timing` (contract above) or makes one
/// compute_timing pass when it is null; with opts.ii > 0 one
/// compute_periodic_timing pass at opts.ii feeds every mark and
/// `spec_timing` is unused.  An empty span builds nothing.
///
/// The dispatch is observable: `wm/pc_auto_exact` and
/// `wm/pc_auto_poisson` count the branch taken per mark (lwm::obs); with
/// opts.ii > 0 the periodic estimators run instead and the counters are
/// `wm/pc_auto_periodic_exact` / `wm/pc_auto_periodic_poisson`.
[[nodiscard]] PcEstimate sched_pc_auto(
    const cdfg::Graph& g, std::span<const SchedWatermark> marks,
    const SchedPcAutoOptions& opts = {},
    const cdfg::TimingInfo* spec_timing = nullptr);

/// The same dispatch for one watermark (a batch of one).
[[nodiscard]] PcEstimate sched_pc_auto(const cdfg::Graph& g,
                                       const SchedWatermark& wm,
                                       const SchedPcAutoOptions& opts = {});

/// Per-edge window-model probability (exposed for tests and ablations).
/// Closed form, O(1): the favorable-draw count is a clipped arithmetic
/// series over src's window, evaluated exactly in integers — bit-
/// identical to the original per-step summation at any window size.
[[nodiscard]] double edge_order_probability(const cdfg::TimingInfo& timing,
                                            const cdfg::Graph& g,
                                            cdfg::NodeId src, cdfg::NodeId dst);

/// Template-matching P_c: Π 1/Solutions(m_i) over the enforced
/// matchings, Solutions counted with matches_covering on the
/// unconstrained graph.
[[nodiscard]] PcEstimate tm_pc(const cdfg::Graph& g,
                               const tmatch::TemplateLibrary& lib,
                               const TmWatermark& wm);

/// Exact template-matching P_c per the paper's §IV-B definition: the
/// number of quality-Q solutions of the watermarked specification over
/// the number of quality-Q solutions of the unconstrained one, where Q
/// is the optimal (minimum) cover size and counting is by exhaustive
/// enumeration.  Falls back to the approximate tm_pc when enumeration
/// saturates (the paper makes the same concession: "explicit enumeration
/// ... can be exponentially dependent upon the CDFG cardinalities").
[[nodiscard]] PcEstimate tm_pc_exact(const cdfg::Graph& g,
                                     const tmatch::TemplateLibrary& lib,
                                     const TmWatermark& wm,
                                     std::uint64_t limit = 5'000'000);

}  // namespace lwm::wm
