// datapath.h — end-to-end high-level synthesis facade.
//
// Ties the substrates into the complete behavioral-synthesis result a
// datapath designer actually costs out: a schedule under a control-step
// budget, a functional-unit allocation, a register binding, and the
// steering logic (multiplexer inputs) the sharing implies.  The
// watermarking protocols hook in as constraint sets, so the *combined*
// overhead of scheduling, template-matching and register watermarks can
// be measured on one artifact — the number the paper's "negligible
// overhead in solution quality" claim is ultimately about.
#pragma once

#include <array>
#include <string>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "regbind/binding.h"
#include "sched/list_sched.h"
#include "sched/resources.h"

namespace lwm::hls {

/// Relative area weights for the summary (adder-equivalents).
inline constexpr double kAluArea = 1.0;
inline constexpr double kMulArea = 4.0;
inline constexpr double kMemArea = 2.0;
inline constexpr double kBranchArea = 0.5;
inline constexpr double kRegisterArea = 0.4;
inline constexpr double kMuxInputArea = 0.1;

struct DatapathOptions {
  /// Control-step budget; -1 = critical path.
  int latency = -1;
  /// Which edges constrain the schedule (all() honors embedded
  /// watermark temporal edges).
  cdfg::EdgeFilter filter = cdfg::EdgeFilter::all();
  /// Extra register-binding constraints (e.g. from register watermarks).
  regbind::BindingConstraints reg_constraints;
};

/// The synthesized datapath and its cost breakdown.
struct Datapath {
  sched::Schedule schedule;
  regbind::Binding binding;
  int latency = 0;
  std::array<int, cdfg::kNumUnitClasses> units{};  ///< FU instances per class
  int registers = 0;
  /// Total multiplexer inputs implied by sharing: for every FU instance,
  /// the distinct source registers feeding each of its operand ports
  /// beyond the first; likewise for every register's write port.
  int mux_inputs = 0;

  [[nodiscard]] int total_units() const {
    int t = 0;
    for (const int u : units) t += u;
    return t;
  }
  [[nodiscard]] double area() const;
  [[nodiscard]] std::string to_string() const;
};

/// Synthesizes `g` into a datapath: force-directed-style time-constrained
/// allocation is approximated by (1) scheduling under the budget with the
/// minimum per-class unit vector that list scheduling can meet, (2)
/// LEFT-EDGE register binding over the resulting lifetimes, (3) a
/// deterministic FU instance assignment (round-robin per step) from which
/// the mux counts are derived.
/// Throws std::invalid_argument if the budget is below the critical path
/// or the register constraints are unsatisfiable.
[[nodiscard]] Datapath synthesize_datapath(const cdfg::Graph& g,
                                           const DatapathOptions& opts = {});

}  // namespace lwm::hls
