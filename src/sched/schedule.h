// schedule.h — the schedule value type and its verifier.
//
// A schedule assigns every executable node a start control step; it is
// the artifact the watermark lives in (the extra temporal edges constrain
// which schedules a marked flow can produce) and the artifact the
// detector inspects.
#pragma once

#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/resources.h"

namespace lwm::sched {

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(const cdfg::Graph& g)
      : start_(g.node_capacity(), kUnscheduled) {}

  static constexpr int kUnscheduled = -1;

  /// Grows transparently: nodes added to the graph after the schedule
  /// was constructed (e.g. attack decoys) can still be scheduled.
  void set_start(cdfg::NodeId n, int step) {
    if (n.value >= start_.size()) {
      start_.resize(n.value + 1, kUnscheduled);
    }
    start_[n.value] = step;
  }

  [[nodiscard]] int start_of(cdfg::NodeId n) const {
    return n.value < start_.size() ? start_[n.value] : kUnscheduled;
  }
  [[nodiscard]] bool is_scheduled(cdfg::NodeId n) const {
    return n.value < start_.size() && start_[n.value] != kUnscheduled;
  }

  /// Schedule length in control steps: max over scheduled nodes of
  /// start + delay (requires the graph for delays).
  [[nodiscard]] int length(const cdfg::Graph& g) const;

  /// Raw start vector (indexed by NodeId::value).
  [[nodiscard]] const std::vector<int>& starts() const noexcept { return start_; }

 private:
  std::vector<int> start_;
};

/// Verification report for a schedule.
struct ScheduleCheck {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    errors.push_back(std::move(msg));
  }
};

/// Checks that `s` is a legal schedule of `g`:
///   * every executable node is scheduled at step >= 0;
///   * every edge accepted by `filter` is honored
///     (start(dst) >= start(src) + delay(src); zero-delay pseudo-ops may
///     share a step with their consumers);
///   * if `latency` >= 0, the schedule fits within it;
///   * per-step usage never exceeds `res` (with `pipelined_units`, an
///     operation occupies its unit only during the issue step).
[[nodiscard]] ScheduleCheck verify_schedule(
    const cdfg::Graph& g, const Schedule& s,
    cdfg::EdgeFilter filter = cdfg::EdgeFilter::all(),
    const ResourceSet& res = ResourceSet::unlimited(), int latency = -1,
    bool pipelined_units = false);

}  // namespace lwm::sched
