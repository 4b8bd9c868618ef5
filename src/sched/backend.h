// backend.h — the witness-scheduler front door lwm-serve dispatches on.
//
// lwm-serve ships a witness schedule with every embedded design and
// picks the scheduler by the design's shape:
//
//     BackendResult r = schedule_with(periodic ? "modulo" : "enumerate", g);
//
//   * "enumerate" — the counting machinery's canonical witness (the
//     ASAP schedule under the latency bound); acyclic designs only.
//   * "modulo" — iterative modulo scheduling for marked graphs
//     (token-carrying back-edges); returns an initiation interval.
//
// Both constrain against d_max, so their schedules stay legal under
// every realization of dynamically bounded delays.  The resource-
// constrained list scheduler has its own entry point (list_sched.h).
#pragma once

#include <span>
#include <string_view>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/resources.h"
#include "sched/schedule.h"

namespace lwm::sched {

/// One request for either backend; each reads the fields it needs.
struct BackendRequest {
  ResourceSet resources = ResourceSet::unlimited();  ///< modulo
  cdfg::EdgeFilter filter = cdfg::EdgeFilter::all();
  /// Latency bound (enumerate); -1 = critical path.
  int latency = -1;
  /// A caller's topological order of every live node under `filter`,
  /// e.g. a resident wm::PlanContext's (enumerate); empty = sort here.
  std::span<const cdfg::NodeId> order;
  bool pipelined_units = false;  ///< modulo
  /// Periodic II search range (modulo); -1 = computed MinII / fallback.
  int min_ii = -1;
  int max_ii = -1;
};

struct BackendResult {
  Schedule schedule;
  int latency = 0;  ///< flat makespan (one iteration for periodic)
  int ii = 0;       ///< initiation interval; 0 for "enumerate"
  /// "enumerate": always (the first witness of an exhaustive order);
  /// "modulo": the II search reached MinII.
  bool optimal = false;
};

/// Runs the backend called `name` ("enumerate" or "modulo").  Throws
/// std::invalid_argument on an unknown name, and on "enumerate" with a
/// marked graph — loudly, instead of letting an acyclic-only scheduler
/// silently drop loop-carried dependences.
[[nodiscard]] BackendResult schedule_with(std::string_view name,
                                          const cdfg::Graph& g,
                                          const BackendRequest& req = {});

}  // namespace lwm::sched
