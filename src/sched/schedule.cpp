#include "sched/schedule.h"

#include <algorithm>
#include <map>

namespace lwm::sched {

int Schedule::length(const cdfg::Graph& g) const {
  int len = 0;
  for (cdfg::NodeId n : g.nodes()) {
    if (!is_scheduled(n)) continue;
    len = std::max(len, start_of(n) + g.node(n).delay);
  }
  return len;
}

ScheduleCheck verify_schedule(const cdfg::Graph& g, const Schedule& s,
                              cdfg::EdgeFilter filter, const ResourceSet& res,
                              int latency, bool pipelined_units) {
  ScheduleCheck check;

  for (cdfg::NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (cdfg::is_executable(node.kind)) {
      if (!s.is_scheduled(n)) {
        check.fail("operation '" + node.name + "' is unscheduled");
      } else if (s.start_of(n) < 0) {
        check.fail("operation '" + node.name + "' starts before step 0");
      }
    }
  }
  if (!check.ok) return check;

  // Effective start of a node for precedence purposes: pseudo-ops are
  // tied to their producers/consumers.
  auto eff_start = [&](cdfg::NodeId n) -> int {
    if (s.is_scheduled(n)) return s.start_of(n);
    // Unscheduled pseudo-op: inputs/consts act as step 0 with 0 delay;
    // outputs follow their producer.
    return 0;
  };

  for (cdfg::EdgeId e : g.edges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (!filter.accepts(ed)) continue;
    const cdfg::Node& src = g.node(ed.src);
    const cdfg::Node& dst = g.node(ed.dst);
    if (!cdfg::is_executable(src.kind) || !cdfg::is_executable(dst.kind)) {
      continue;  // boundary pseudo-ops impose no step constraint
    }
    const int gap = eff_start(ed.dst) - (eff_start(ed.src) + src.delay);
    if (gap < 0) {
      check.fail("edge " + src.name + " -> " + dst.name + " (" +
                 std::string(cdfg::edge_kind_name(ed.kind)) +
                 ") violated: dst starts " + std::to_string(-gap) +
                 " step(s) too early");
    }
  }

  const int len = s.length(g);
  if (latency >= 0 && len > latency) {
    check.fail("schedule length " + std::to_string(len) +
               " exceeds latency bound " + std::to_string(latency));
  }

  if (!res.is_unlimited()) {
    // step -> usage per class
    std::map<int, std::array<int, cdfg::kNumUnitClasses>> usage;
    for (cdfg::NodeId n : g.nodes()) {
      const cdfg::Node& node = g.node(n);
      if (!cdfg::is_executable(node.kind) || !s.is_scheduled(n)) continue;
      const auto uc = static_cast<std::size_t>(cdfg::unit_class(node.kind));
      const int occupied = pipelined_units ? 1 : node.delay;
      for (int t = s.start_of(n); t < s.start_of(n) + occupied; ++t) {
        ++usage[t][uc];
      }
    }
    for (const auto& [step, use] : usage) {
      for (int c = 0; c < cdfg::kNumUnitClasses; ++c) {
        const auto cls = static_cast<cdfg::UnitClass>(c);
        if (res.is_limited(cls) &&
            use[static_cast<std::size_t>(c)] > res.count(cls)) {
          check.fail("step " + std::to_string(step) + " uses " +
                     std::to_string(use[static_cast<std::size_t>(c)]) +
                     " units of class " + std::to_string(c) + " (limit " +
                     std::to_string(res.count(cls)) + ")");
        }
      }
    }
  }
  return check;
}

}  // namespace lwm::sched
