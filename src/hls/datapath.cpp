#include "hls/datapath.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "regbind/lifetime.h"

namespace lwm::hls {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

double Datapath::area() const {
  double a = 0.0;
  a += units[static_cast<std::size_t>(cdfg::UnitClass::kAlu)] * kAluArea;
  a += units[static_cast<std::size_t>(cdfg::UnitClass::kMul)] * kMulArea;
  a += units[static_cast<std::size_t>(cdfg::UnitClass::kMem)] * kMemArea;
  a += units[static_cast<std::size_t>(cdfg::UnitClass::kBranch)] * kBranchArea;
  a += registers * kRegisterArea;
  a += mux_inputs * kMuxInputArea;
  return a;
}

std::string Datapath::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency=%d units[alu=%d mul=%d mem=%d br=%d] regs=%d "
                "mux_in=%d area=%.1f",
                latency, units[static_cast<std::size_t>(cdfg::UnitClass::kAlu)],
                units[static_cast<std::size_t>(cdfg::UnitClass::kMul)],
                units[static_cast<std::size_t>(cdfg::UnitClass::kMem)],
                units[static_cast<std::size_t>(cdfg::UnitClass::kBranch)],
                registers, mux_inputs, area());
  return buf;
}

namespace {

/// Minimal per-class unit vector such that list scheduling meets the
/// budget: grow the most-utilized class until the schedule fits, then
/// trim overshoot.
sched::ResourceSet fit_units(const Graph& g, int budget,
                             cdfg::EdgeFilter filter,
                             sched::Schedule* out_schedule) {
  std::array<int, cdfg::kNumUnitClasses> work{};
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    work[static_cast<std::size_t>(cdfg::unit_class(node.kind))] += node.delay;
  }
  sched::ResourceSet res = sched::ResourceSet::unlimited();
  std::array<int, cdfg::kNumUnitClasses> counts{};
  for (std::size_t c = 1; c < cdfg::kNumUnitClasses; ++c) {
    if (work[c] == 0) continue;
    counts[c] = std::max(1, (work[c] + budget - 1) / budget);
    res.set_count(static_cast<cdfg::UnitClass>(c), counts[c]);
  }

  auto try_schedule = [&](const sched::ResourceSet& r) {
    sched::ListScheduleOptions lopts;
    lopts.resources = r;
    lopts.filter = filter;
    return sched::list_schedule(g, lopts);
  };

  sched::Schedule s = try_schedule(res);
  int guard = 0;
  while (s.length(g) > budget) {
    // Grow the class with the highest utilization pressure.
    std::size_t grow = 0;
    double worst = -1.0;
    for (std::size_t c = 1; c < cdfg::kNumUnitClasses; ++c) {
      if (work[c] == 0) continue;
      const double pressure =
          static_cast<double>(work[c]) / (static_cast<double>(counts[c]) * budget);
      if (pressure > worst) {
        worst = pressure;
        grow = c;
      }
    }
    ++counts[grow];
    res.set_count(static_cast<cdfg::UnitClass>(grow), counts[grow]);
    s = try_schedule(res);
    if (++guard > static_cast<int>(g.operation_count()) + 16) {
      throw std::logic_error("fit_units: allocation failed to converge");
    }
  }
  // Trim overshoot, widest classes first.
  bool trimmed = true;
  while (trimmed) {
    trimmed = false;
    for (std::size_t c = 1; c < cdfg::kNumUnitClasses; ++c) {
      if (counts[c] <= 1 || work[c] == 0) continue;
      --counts[c];
      res.set_count(static_cast<cdfg::UnitClass>(c), counts[c]);
      const sched::Schedule probe = try_schedule(res);
      if (probe.length(g) <= budget) {
        s = probe;
        trimmed = true;
      } else {
        ++counts[c];
        res.set_count(static_cast<cdfg::UnitClass>(c), counts[c]);
      }
    }
  }
  *out_schedule = s;
  return res;
}

}  // namespace

Datapath synthesize_datapath(const Graph& g, const DatapathOptions& opts) {
  const int cp = cdfg::critical_path_length(g, opts.filter);
  // The budget is raised to the constrained critical path if needed —
  // watermark edges may stretch it, and that stretch *is* the latency
  // overhead the caller wants to observe.
  const int budget = std::max(opts.latency < 0 ? cp : opts.latency, cp);

  Datapath dp;
  const sched::ResourceSet res = fit_units(g, budget, opts.filter, &dp.schedule);
  dp.latency = dp.schedule.length(g);
  for (std::size_t c = 0; c < cdfg::kNumUnitClasses; ++c) {
    const int n = res.count(static_cast<cdfg::UnitClass>(c));
    dp.units[c] = n < 0 ? 0 : n;
  }

  // Register binding over the schedule's lifetimes.
  const auto lifetimes = regbind::compute_lifetimes(g, dp.schedule);
  const auto binding = regbind::left_edge_binding(lifetimes, opts.reg_constraints);
  if (!binding) {
    throw std::invalid_argument(
        "synthesize_datapath: register constraints unsatisfiable");
  }
  dp.binding = *binding;
  dp.registers = binding->register_count;

  // Deterministic FU instance assignment: per step, class ops in NodeId
  // order take instances 0, 1, 2, ...
  std::map<std::pair<int, int>, std::vector<NodeId>> step_class_ops;
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    const int cls = static_cast<int>(cdfg::unit_class(node.kind));
    step_class_ops[{dp.schedule.start_of(n), cls}].push_back(n);
  }
  std::map<NodeId, std::pair<int, int>> fu_of;  // node -> (class, instance)
  for (auto& [key, nodes] : step_class_ops) {
    std::sort(nodes.begin(), nodes.end());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      fu_of[nodes[i]] = {key.second, static_cast<int>(i)};
    }
  }

  // Mux inputs: distinct operand sources per FU port, and distinct
  // writers per register.
  // (class, instance, port) -> set of source keys.
  std::map<std::tuple<int, int, int>, std::set<int>> port_sources;
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    const auto [cls, inst] = fu_of.at(n);
    int port = 0;
    for (EdgeId e : g.fanin(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind != cdfg::EdgeKind::kData) continue;
      // Source key: register index if the value is registered, otherwise
      // a unique negative id per primary input/constant.
      const int reg = dp.binding.reg(ed.src);
      const int key = reg >= 0 ? reg : -static_cast<int>(ed.src.value) - 1;
      port_sources[{cls, inst, port}].insert(key);
      ++port;
    }
  }
  dp.mux_inputs = 0;
  for (const auto& [port, sources] : port_sources) {
    dp.mux_inputs += std::max<int>(0, static_cast<int>(sources.size()) - 1);
  }
  // Register write ports.
  std::map<int, std::set<std::pair<int, int>>> reg_writers;
  for (const auto& lt : lifetimes) {
    const int reg = dp.binding.reg(lt.producer);
    if (reg < 0) continue;
    const auto it = fu_of.find(lt.producer);
    if (it != fu_of.end()) reg_writers[reg].insert(it->second);
  }
  for (const auto& [reg, writers] : reg_writers) {
    dp.mux_inputs += std::max<int>(0, static_cast<int>(writers.size()) - 1);
  }
  return dp;
}

}  // namespace lwm::hls
