#include "fds_reference.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/op.h"

namespace lwm::sched {

using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

/// Recomputes [asap, alap] windows honoring pinned start steps.
struct Windows {
  std::vector<int> lo, hi;
};

Windows compute_windows(const Graph& g, const std::vector<NodeId>& order,
                        const std::vector<int>& pinned, int latency,
                        EdgeFilter filter) {
  Windows w;
  w.lo.assign(g.node_capacity(), 0);
  w.hi.assign(g.node_capacity(), 0);
  for (NodeId n : order) {
    int lo = 0;
    for (EdgeId e : g.fanin(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      lo = std::max(lo, w.lo[ed.src.value] + g.node(ed.src).delay);
    }
    if (pinned[n.value] >= 0) {
      if (pinned[n.value] < lo) {
        throw std::logic_error("FDS: pinned step violates precedence");
      }
      lo = pinned[n.value];
    }
    w.lo[n.value] = lo;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    int hi = latency - g.node(n).delay;
    for (EdgeId e : g.fanout(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      hi = std::min(hi, w.hi[ed.dst.value] - g.node(n).delay);
    }
    if (pinned[n.value] >= 0) hi = pinned[n.value];
    if (hi < w.lo[n.value]) {
      throw std::logic_error("FDS: empty window (latency too tight)");
    }
    w.hi[n.value] = hi;
  }
  return w;
}

}  // namespace

Schedule force_directed_schedule_reference(const Graph& g,
                                           const FdsOptions& opts) {
  const cdfg::TimingInfo base = cdfg::compute_timing(g, -1, opts.filter);
  const int latency = opts.latency < 0 ? base.critical_path : opts.latency;
  if (latency < base.critical_path) {
    throw std::invalid_argument("force_directed_schedule: latency " +
                                std::to_string(opts.latency) +
                                " below critical path " +
                                std::to_string(base.critical_path));
  }

  const std::vector<NodeId> order = cdfg::topo_order(g, opts.filter);
  std::vector<int> pinned(g.node_capacity(), -1);

  std::vector<NodeId> unscheduled;
  for (NodeId n : order) {
    if (cdfg::is_executable(g.node(n).kind)) unscheduled.push_back(n);
  }

  Schedule sched(g);
  while (!unscheduled.empty()) {
    const Windows w = compute_windows(g, order, pinned, latency, opts.filter);

    // Distribution graphs per unit class: expected occupancy of each step.
    std::vector<std::vector<double>> dg(
        cdfg::kNumUnitClasses, std::vector<double>(static_cast<std::size_t>(latency), 0.0));
    auto add_probability = [&](NodeId n, double sign) {
      const cdfg::Node& node = g.node(n);
      const auto cls = static_cast<std::size_t>(cdfg::unit_class(node.kind));
      const int lo = w.lo[n.value];
      const int hi = w.hi[n.value];
      const double p = 1.0 / (hi - lo + 1);
      for (int t = lo; t <= hi; ++t) {
        for (int d = 0; d < node.delay; ++d) {
          dg[cls][static_cast<std::size_t>(t + d)] += sign * p;
        }
      }
    };
    for (NodeId n : order) {
      if (cdfg::is_executable(g.node(n).kind)) add_probability(n, +1.0);
    }

    // Self force of placing n at step t (textbook formula: sum over the
    // occupied steps of DG(s) * (new_prob(s) - old_prob(s))).
    auto self_force = [&](NodeId n, int t) {
      const cdfg::Node& node = g.node(n);
      const auto cls = static_cast<std::size_t>(cdfg::unit_class(node.kind));
      const int lo = w.lo[n.value];
      const int hi = w.hi[n.value];
      const double p_old = 1.0 / (hi - lo + 1);
      double force = 0.0;
      for (int s = lo; s <= hi; ++s) {
        for (int d = 0; d < node.delay; ++d) {
          const double p_new = (s == t) ? 1.0 : 0.0;
          force += dg[cls][static_cast<std::size_t>(s + d)] * (p_new - p_old);
        }
      }
      return force;
    };

    // Neighbor forces: pinning n at t clips each direct predecessor's
    // window to end by t - delay_p and each successor's to start at
    // t + delay_n; approximate their force change with the same formula
    // over the clipped window.
    auto clipped_force = [&](NodeId m, int new_lo, int new_hi) {
      const cdfg::Node& node = g.node(m);
      const auto cls = static_cast<std::size_t>(cdfg::unit_class(node.kind));
      const int lo = w.lo[m.value];
      const int hi = w.hi[m.value];
      new_lo = std::max(new_lo, lo);
      new_hi = std::min(new_hi, hi);
      if (new_lo > new_hi) return 1e9;  // infeasible neighbor placement
      const double p_old = 1.0 / (hi - lo + 1);
      const double p_new = 1.0 / (new_hi - new_lo + 1);
      double force = 0.0;
      for (int s = lo; s <= hi; ++s) {
        const double pn = (s >= new_lo && s <= new_hi) ? p_new : 0.0;
        for (int d = 0; d < node.delay; ++d) {
          force += dg[cls][static_cast<std::size_t>(s + d)] * (pn - p_old);
        }
      }
      return force;
    };

    NodeId best_node;
    int best_step = -1;
    double best_force = 0.0;
    bool have_best = false;
    for (NodeId n : unscheduled) {
      const cdfg::Node& node = g.node(n);
      for (int t = w.lo[n.value]; t <= w.hi[n.value]; ++t) {
        double force = self_force(n, t);
        for (EdgeId e : g.fanin(n)) {
          const cdfg::Edge& ed = g.edge(e);
          if (!opts.filter.accepts(ed)) continue;
          const NodeId p = ed.src;
          if (!cdfg::is_executable(g.node(p).kind) || pinned[p.value] >= 0) continue;
          force += clipped_force(p, 0, t - g.node(p).delay);
        }
        for (EdgeId e : g.fanout(n)) {
          const cdfg::Edge& ed = g.edge(e);
          if (!opts.filter.accepts(ed)) continue;
          const NodeId s = ed.dst;
          if (!cdfg::is_executable(g.node(s).kind) || pinned[s.value] >= 0) continue;
          force += clipped_force(s, t + node.delay, latency);
        }
        if (!have_best || force < best_force) {
          have_best = true;
          best_force = force;
          best_node = n;
          best_step = t;
        }
      }
    }
    pinned[best_node.value] = best_step;
    sched.set_start(best_node, best_step);
    unscheduled.erase(
        std::remove(unscheduled.begin(), unscheduled.end(), best_node),
        unscheduled.end());
  }
  return sched;
}

}  // namespace lwm::sched
