// bnb.h — exact (branch & bound) resource-constrained scheduling.
//
// The paper cites ILP formulations [15] as the exact counterpart of the
// heuristics.  This module provides an equivalent exact solver: minimum-
// latency schedule under a ResourceSet, by depth-first branch & bound over
// per-step issue decisions.  Exponential in the worst case — intended for
// the small designs where the paper, too, uses exhaustive methods.
//
// Parallel search.  When `pool` is set, the first branching level (the
// start step of the first operation) is split across the pool, with a
// shared atomic incumbent packed as (latency << 32 | branch_index): a
// candidate prunes when its optimistic completion ties or exceeds the
// incumbent *lexicographically*, so at equal latency the lowest branch
// index wins.  That makes the returned schedule the first optimum in the
// canonical serial DFS order — bit-identical at every thread count, and
// identical to the historical serial implementation.  Each branch also
// carries a dominance memo keyed on (position, ready-time signature of
// the remaining ops, live usage suffix): a subtree whose prefix makespan
// cannot beat an earlier subtree with the same signature is pruned, which
// never changes the returned optimum (the dominating subtree owns an
// equally good, earlier leaf).  The memo is consulted only in the shallow
// half of the tree — deep levels churn through millions of tiny subtrees
// where the signature costs more than the subtree it could save, while a
// shallow hit prunes an exponentially large one.  The gate is a pure
// function of depth, so determinism is unaffected.
//
// Determinism caveats:
//   * `search_nodes` is an effort metric — under a pool it depends on how
//     fast the incumbent travels between branches and is NOT reproducible
//     run to run.
//   * when `node_limit` is hit the solver returns the list-scheduling
//     seed with optimal = false (not the best-so-far, which would depend
//     on timing).  A limit generous enough to finish behaves identically
//     at every thread count; a borderline limit may flip between the two
//     outcomes.
#pragma once


#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/resources.h"
#include "sched/schedule.h"

namespace lwm::exec {
class ThreadPool;
}  // namespace lwm::exec

namespace lwm::sched {

struct BnbOptions {
  ResourceSet resources = ResourceSet::unlimited();
  cdfg::EdgeFilter filter = cdfg::EdgeFilter::all();
  /// Abort knob: give up after this many search nodes (0 = unlimited).
  std::uint64_t node_limit = 50'000'000;
  /// Optional pool: splits the first branching level.  Results are
  /// bit-identical at every concurrency; see the caveats above.
  exec::ThreadPool* pool = nullptr;
};

struct BnbResult {
  Schedule schedule;
  int latency = 0;
  bool optimal = true;   ///< false if node_limit hit (list seed returned)
  std::uint64_t search_nodes = 0;
};

/// Minimum-latency schedule of `g` under the resource constraints.
[[nodiscard]] BnbResult bnb_min_latency(const cdfg::Graph& g,
                                        const BnbOptions& opts = {});

}  // namespace lwm::sched
