// vliw_sched.h — cycle model: packing a CDFG onto the VLIW machine.
//
// Greedy cycle-by-cycle packing (the static equivalent of an in-order
// issue stage): every cycle, ready operations are issued in critical-path
// priority order until the issue width or a unit class saturates.  The
// resulting cycle count is the execution-time proxy behind Table I's
// "Perf. OH" column — the watermark's inserted unit operations and
// temporal edges can only add cycles through real slot pressure, exactly
// as on the paper's machine.
#pragma once

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/schedule.h"
#include "vliw/machine.h"

namespace lwm::vliw {

struct VliwResult {
  sched::Schedule schedule;  ///< issue cycle per operation
  int cycles = 0;            ///< total execution cycles
  long long issued_ops = 0;  ///< operations issued (sanity/statistics)
};

/// Packs all executable nodes of `g` onto `m`.  Loads take
/// `m.load_delay` cycles; everything else uses Node::delay.
[[nodiscard]] VliwResult vliw_schedule(const cdfg::Graph& g, const Machine& m,
                                       cdfg::EdgeFilter filter = cdfg::EdgeFilter::all());

}  // namespace lwm::vliw
