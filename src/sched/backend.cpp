#include "sched/backend.h"

#include <stdexcept>
#include <string>

#include "cdfg/analysis.h"
#include "sched/modulo.h"

namespace lwm::sched {

namespace {

// The counting machinery's witness: the first schedule in the canonical
// enumeration order.  The enumerator assigns each node the lowest step
// in its tightened window consistent with already-placed predecessors,
// which is exactly the ASAP schedule under the latency bound — so the
// witness is produced in closed form, no search.
BackendResult run_enumerate(const cdfg::Graph& g, const BackendRequest& req) {
  const cdfg::TimingInfo t = compute_timing(g, req.latency, req.filter);
  BackendResult r;
  r.schedule = Schedule(g);
  for (cdfg::NodeId n : g.nodes()) {
    r.schedule.set_start(n, t.asap[n.value]);
  }
  r.latency = r.schedule.length(g);
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
