// lifetime.h — variable lifetime analysis over a scheduled CDFG.
//
// After scheduling, every value-producing operation defines a variable
// that must be held in a register from the step its producer finishes
// until the last step a consumer reads it.  The paper points at exactly
// this chain ("Scheduling determines ... the lifetimes of variables"):
// lifetimes feed register binding, the third behavioral-synthesis task
// the local-watermarking methodology applies to in this library.
#pragma once

#include <vector>

#include "cdfg/graph.h"
#include "sched/schedule.h"

namespace lwm::regbind {

/// One variable's register requirement: the half-open step interval
/// [birth, death) during which its value must be preserved.
struct Lifetime {
  cdfg::NodeId producer;  ///< operation defining the value
  int birth = 0;          ///< first step the value exists
  int death = 0;          ///< first step the value is no longer needed

  [[nodiscard]] int span() const { return death - birth; }
  [[nodiscard]] bool overlaps(const Lifetime& other) const {
    return birth < other.death && other.birth < death;
  }
};

/// Computes lifetimes for every value an operation produces with at
/// least one consumer.  Primary inputs and constants get none: the
/// classic binding formulation registers only intermediate values.
/// A value is born when its producer finishes (start + delay) and dies
/// after the start step of its last data consumer (+1: the consumer
/// reads it during that step).  Values feeding only primary outputs die
/// one step after birth (they are latched out immediately).
/// Precondition: `s` schedules every executable node of `g`.
[[nodiscard]] std::vector<Lifetime> compute_lifetimes(
    const cdfg::Graph& g, const sched::Schedule& s);

/// Maximum number of simultaneously live values — the lower bound on any
/// register binding (interval-graph clique number).
[[nodiscard]] int max_live(const std::vector<Lifetime>& lifetimes);

}  // namespace lwm::regbind
