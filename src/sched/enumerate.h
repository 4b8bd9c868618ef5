// enumerate.h — exhaustive enumeration / counting of feasible schedules.
//
// The paper validates its probabilistic authorship argument by explicit
// enumeration ("we have used a trivial exhaustive enumeration technique to
// calculate these probabilities only for small examples"): the IIR-filter
// subtree admits 166 schedules without the watermark constraints and 15
// with them, hence P_c = 15/166; a single temporal edge's odds are
// psi_W/psi_N = 10/77.  This module reproduces that machinery.
//
// The counter.  count_separated is the one psi counter, for flat and
// periodic schedule spaces alike.  Its input is m members, each with a
// start window [lo, hi], and an m x m separation matrix: sep[i*m + j] is
// the least start(j) - start(i) every schedule keeps, or kNoSeparation
// when the pair is unconstrained.  A schedule is one start per member,
// inside its window, honoring every separation.  The counter (a) closes
// the matrix over paths through members, (b) tightens every window once
// over all pairs, (c) factors the members into independent components
// whose counts multiply, and (d) runs one serial DFS per component that
// checks only the separations a transitive reduction keeps, counts its
// last level in closed form and stops at `limit`.
//
// Flat semantics.  count_schedules is the flat front end.  A *schedule
// of a node set S* assigns each node in S a start step inside its
// [ASAP, ALAP] window (the caller's specification windows, computed on
// the whole graph against a latency bound), such that every precedence
// between two members of S — including transitive precedence through
// nodes outside S — is honored with the correct delay-weighted
// separation.  Counting over S rather than the whole graph is what makes
// the subtree-local numbers of the paper well defined.
#pragma once

#include <climits>
#include <cstdint>
#include <span>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"

namespace lwm::sched {

/// The separation-matrix sentinel: the pair is unconstrained.  Far from
/// LLONG_MIN, so adding a finite separation cannot overflow.
inline constexpr long long kNoSeparation = LLONG_MIN / 4;

/// The default stop of a count: the exact P_c budget of one mark.
inline constexpr std::uint64_t kExactLimit = 1'000'000;

/// Extra precedence used for "what if this temporal edge existed"
/// counting without mutating the graph.
struct ExtraPrecedence {
  cdfg::NodeId before;
  cdfg::NodeId after;
};

struct EnumerationResult {
  std::uint64_t count = 0;
  bool saturated = false;  ///< true if the count reached `limit`
};

/// Counts the schedules of m = lo.size() members: starts t with lo[i] <=
/// t[i] <= hi[i] and t[j] >= t[i] + sep[i*m + j] wherever that entry is
/// not kNoSeparation (`sep` holds m * m entries; its diagonal may carry
/// a cycle's weight, and a positive one admits nothing).  Counting stops
/// once it reaches `limit` (> 0); a saturated result reports `limit`.
/// No members is one (empty) schedule.
[[nodiscard]] EnumerationResult count_separated(
    std::span<const long long> lo, std::span<const long long> hi,
    std::span<const long long> sep, std::uint64_t limit = kExactLimit);

/// Counts the flat schedules of `subset` (its distinct live nodes)
/// inside the windows of `timing`, which must be
/// compute_timing(g, latency, EdgeFilter::specification()) for some
/// latency bound.  Separations come from one forward walk per member over
/// specification edges; `extra` adds start(after) >= start(before) +
/// delay(before) between two members.  Throws std::out_of_range on a
/// dead node in `subset`, std::invalid_argument on an extra endpoint
/// outside it, and std::runtime_error when the extras make the
/// precedence relation cyclic.
[[nodiscard]] EnumerationResult count_schedules(
    const cdfg::Graph& g, const cdfg::TimingInfo& timing,
    std::span<const cdfg::NodeId> subset,
    std::span<const ExtraPrecedence> extra = {},
    std::uint64_t limit = kExactLimit);

}  // namespace lwm::sched
