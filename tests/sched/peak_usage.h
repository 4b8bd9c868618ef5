// peak_usage.h — per-class peak concurrent usage of a schedule, the
// "module count" style cost that time-constrained synthesis minimizes.
// The schedule tests compare schedules by it; nothing in the
// library needs it, so it lives with the tests.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>

#include "cdfg/graph.h"
#include "sched/schedule.h"

namespace lwm::sched {

struct UnitUsage {
  std::array<int, cdfg::kNumUnitClasses> peak{};

  [[nodiscard]] int total() const {
    int t = 0;
    for (const int p : peak) t += p;
    return t;
  }
};

[[nodiscard]] inline UnitUsage peak_usage(const cdfg::Graph& g,
                                          const Schedule& s) {
  std::map<int, std::array<int, cdfg::kNumUnitClasses>> usage;
  for (cdfg::NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind) || !s.is_scheduled(n)) continue;
    const auto uc = static_cast<std::size_t>(cdfg::unit_class(node.kind));
    for (int t = s.start_of(n); t < s.start_of(n) + node.delay; ++t) {
      ++usage[t][uc];
    }
  }
  UnitUsage peak;
  for (const auto& [step, use] : usage) {
    for (std::size_t c = 0; c < peak.peak.size(); ++c) {
      peak.peak[c] = std::max(peak.peak[c], use[c]);
    }
  }
  return peak;
}

}  // namespace lwm::sched
