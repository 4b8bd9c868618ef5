#include "sched/backend.h"

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "sched/modulo.h"

namespace lwm::sched {

namespace {

// The counting machinery's witness: the first schedule in the canonical
// enumeration order.  The enumerator assigns each node the lowest step
// in its tightened window consistent with already-placed predecessors,
// which is exactly the ASAP schedule under the latency bound — so the
// witness is produced in closed form, no search: one forward relaxation,
// since the earliest starts do not depend on the bound.
BackendResult run_enumerate(const cdfg::Graph& g, const BackendRequest& req) {
  std::vector<cdfg::NodeId> own;
  std::span<const cdfg::NodeId> order = req.order;
  if (order.empty()) {
    own = cdfg::topo_order(g, req.filter);
    order = own;
  }
  const std::vector<int> asap = cdfg::asap_starts(g, order, req.filter);
  BackendResult r;
  r.schedule = Schedule(g);
  for (cdfg::NodeId n : g.nodes()) {
    r.schedule.set_start(n, asap[n.value]);
  }
  // Every live node is scheduled at its ASAP step, so the makespan is
  // the critical path.
  r.latency = r.schedule.length(g);
  if (req.latency >= 0 && req.latency < r.latency) {
    throw std::invalid_argument(
        "schedule_with: latency " + std::to_string(req.latency) +
        " below critical path " + std::to_string(r.latency) + " in '" +
        g.name() + "'");
  }
  r.optimal = true;  // first witness of an exhaustive order is exact
  return r;
}

BackendResult run_modulo(const cdfg::Graph& g, const BackendRequest& req) {
  ModuloOptions opts;
  opts.resources = req.resources;
  opts.filter = req.filter;
  opts.filter.token = true;  // periodic scheduling always sees back-edges
  opts.pipelined_units = req.pipelined_units;
  opts.min_ii = req.min_ii;
  opts.max_ii = req.max_ii;
  const ModuloResult m = modulo_schedule(g, opts);
  BackendResult r;
  r.schedule = m.schedule;
  r.latency = m.length;
  r.ii = m.ii;
  r.optimal = m.achieved_min_ii();
  return r;
}

}  // namespace

BackendResult schedule_with(std::string_view name, const cdfg::Graph& g,
                            const BackendRequest& req) {
  if (name == "modulo") return run_modulo(g, req);
  if (name != "enumerate") {
    throw std::invalid_argument("schedule_with: unknown backend '" +
                                std::string(name) +
                                "' (have: enumerate, modulo)");
  }
  if (g.has_token_edges()) {
    throw std::invalid_argument(
        "schedule_with: 'enumerate' is acyclic-only but '" + g.name() +
        "' is a marked graph with loop-carried token edges — use 'modulo'");
  }
  return run_enumerate(g, req);
}

}  // namespace lwm::sched
