#include "regbind/lifetime.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace lwm::regbind {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

std::vector<Lifetime> compute_lifetimes(const Graph& g,
                                        const sched::Schedule& s) {
  std::vector<Lifetime> out;
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    if (!s.is_scheduled(n)) {
      throw std::invalid_argument("compute_lifetimes: unscheduled operation '" +
                                  node.name + "'");
    }
    // Only value-producing nodes occupy registers.
    if (node.kind == cdfg::OpKind::kStore || node.kind == cdfg::OpKind::kBranch) {
      continue;
    }
    bool has_consumer = false;
    int last_use = 0;
    for (EdgeId e : g.fanout(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind != cdfg::EdgeKind::kData) continue;
      has_consumer = true;
      const cdfg::Node& consumer = g.node(ed.dst);
      if (cdfg::is_executable(consumer.kind)) {
        last_use = std::max(last_use, s.start_of(ed.dst));
      }
    }
    if (!has_consumer) continue;

    Lifetime lt;
    lt.producer = n;
    lt.birth = s.start_of(n) + node.delay;
    lt.death = std::max(last_use + 1, lt.birth + 1);
    out.push_back(lt);
  }
  return out;
}

int max_live(const std::vector<Lifetime>& lifetimes) {
  // Sweep: +1 at birth, -1 at death.
  std::map<int, int> delta;
  for (const Lifetime& lt : lifetimes) {
    ++delta[lt.birth];
    --delta[lt.death];
  }
  int live = 0;
  int peak = 0;
  for (const auto& [step, d] : delta) {
    live += d;
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace lwm::regbind
