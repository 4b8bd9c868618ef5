// pc.h — coincidence-probability (proof-of-authorship) estimation.
//
// The strength of a watermark is 1 - P_c, where P_c is the probability
// that an unwatermarked flow coincidentally produces a solution
// satisfying the hidden constraints.
//
// Scheduling (paper §IV-A):  P_c ≈ Π_i psi_W(e_i)/psi_N(e_i).  For small
// localities both counts come from exhaustive enumeration (the 15/166 of
// the motivational example); at scale, violations of the temporal
// constraints are Poisson with rates from the operations' ASAP–ALAP
// windows.  sched_pc_auto is the one dispatch between the two.
//
// Template matching (paper §IV-B):  P_c ≈ Π_{i=1..Z} Solutions(m_i)^{-1},
// where Solutions(m) counts the distinct matchings covering m's nodes.
#pragma once

#include <span>

#include "cdfg/graph.h"
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
// and sched_pc_window_model and the span sched_pc_auto take it as an
// optional trailing `spec_timing` argument.  When null they compute it
// themselves (one O(V+E) pass per call); when given it must be the
// specification timing of a graph with the same live nodes, NodeIds and
// delays as `g`.  Temporal edges may differ: the specification filter
// ignores them, so the windows of a pristine design serve every marked
// copy of it (serve::StoredDesign passes its resident
// PlanContext::timing).  Results are bit-identical either way.

/// Window-model P_c of a set of scheduling watermarks: per temporal edge
/// e(src -> dst), the probability that independent uniform draws from the
/// two [ASAP, ALAP] windows put src's finish at or before dst's start;
/// log-probabilities sum over all edges of all watermarks.  Table I's P_c
/// column and the protocol report it.
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

/// The scheduling P_c front door (paper §IV-A), one mark at a time:
///   * exact — at most 2048 graph nodes: psi_w / psi_n by exhaustive
///     enumeration over the executable members of the mark's carved
///     subtree.  Each count stops at 1e6 schedules; a mark whose count
///     reaches that budget (or whose space is empty) takes the Poisson
///     model below on the same windows, so no mark costs more than the
///     budget.  No schedule satisfying the mark gives a floor one decade
///     below 1/psi_n, flagged degenerate.
///   * Poisson — above 2048 nodes, or on that fallback: the number of
///     violated temporal constraints in a random schedule is Poisson
///     with mean lambda = sum_i (1 - p_i), p_i the window-model order
///     probability of edge i, so log10_pc = -lambda / ln 10.  An
///     unsatisfiable edge (p_i = 0) adds one full expected violation and
///     flags the estimate degenerate.
///
/// `ii` selects the schedule space.  0 counts flat schedules of the
/// acyclic design inside its specification [ASAP, ALAP] windows; ii > 0
/// counts *periodic* schedules of a marked graph at initiation interval
/// `ii` — flat (iteration-0) starts inside token-weighted windows
/// (edge weight delay(src) - ii * tokens), every temporal constraint
/// taken in the flat sense the detector checks.  Throws
/// std::runtime_error when `ii` is below the recurrence bound (no
/// periodic schedule exists).
///
/// The per-mark estimates combine in mark order — log10_pc summed from
/// +0.0, `exact` the AND over marks (false for an empty span),
/// `degenerate` the OR.  The windows are built at most once per call:
/// the flat space reads `spec_timing` (contract above) or makes one
/// compute_timing pass when it is null; ii > 0 makes one periodic pass
/// and ignores `spec_timing`.  An empty span builds nothing.
///
/// The dispatch is observable (lwm::obs): `wm/pc_auto_exact` counts the
/// marks that tried the exact path, `wm/pc_auto_poisson` the marks the
/// Poisson model estimated, and `wm/psi_evals` the enumerations run.
[[nodiscard]] PcEstimate sched_pc_auto(
    const cdfg::Graph& g, std::span<const SchedWatermark> marks, int ii = 0,
    const cdfg::TimingInfo* spec_timing = nullptr);

/// The same dispatch for one watermark (a batch of one).
[[nodiscard]] PcEstimate sched_pc_auto(const cdfg::Graph& g,
                                       const SchedWatermark& wm, int ii = 0);

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
