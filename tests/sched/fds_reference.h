// fds_reference.h — the from-scratch force-directed scheduler, kept as
// the equivalence oracle for sched::force_directed_schedule().
//
// The original O(iterations x nodes x steps) loop: every iteration
// recomputes all [asap, alap] windows from scratch (honoring the nodes
// pinned so far), rebuilds the distribution graphs, and evaluates the
// textbook self and neighbor forces for every unscheduled node at every
// step of its window.  The incremental engine must match it exactly at
// eps_dg == 0 (tests/sched/fds_incremental_test.cpp,
// delay_table_sched_test.cpp), and bench_micro times it as the headline
// baseline (fds_speedup).  It lives here, not in the library, because
// nothing but tests and benches calls it.
#pragma once

#include "cdfg/graph.h"
#include "sched/force_directed.h"
#include "sched/schedule.h"

namespace lwm::sched {

/// Serial (ignores opts.pool, opts.eps_dg and opts.stats).  Throws
/// std::invalid_argument if the latency bound is below the critical path.
[[nodiscard]] Schedule force_directed_schedule_reference(
    const cdfg::Graph& g, const FdsOptions& opts = {});

}  // namespace lwm::sched
