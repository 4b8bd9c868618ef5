#include "wm/tm_constraints.h"

#include <algorithm>
#include <stdexcept>

#include "cdfg/analysis.h"

namespace lwm::wm {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;
using tmatch::Match;

std::optional<TmWatermark> plan_tm_watermark(const Graph& g,
                                             const tmatch::TemplateLibrary& lib,
                                             const crypto::Signature& sig,
                                             const TmWmOptions& opts) {
  if (opts.z <= 0 || opts.epsilon <= 0.0) {
    throw std::invalid_argument("plan_tm_watermark: need z > 0 and epsilon > 0");
  }

  // Exclude near-critical nodes: laxity greater than C * (1 - epsilon)
  // nodes are removed from T (Fig. 5 line 03).
  const cdfg::TimingInfo timing =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  const int budget = opts.budget < 0 ? timing.critical_path : opts.budget;
  if (budget < timing.critical_path) {
    throw std::invalid_argument("plan_tm_watermark: budget below critical path");
  }
  const double bound = budget * (1.0 - opts.epsilon);

  TmWatermark wm;
  wm.options = opts;
  std::unordered_set<NodeId> processed;
  crypto::Bitstream stream = sig.stream(TmWmOptions::kSelectTag);

  for (int iter = 0; iter < opts.z; ++iter) {
    // T' for this iteration.
    tmatch::MatchConstraints cons;
    cons.ppo = wm.ppos;
    for (NodeId n : g.nodes()) {
      const bool slack_ok =
          cdfg::is_executable(g.node(n).kind) && timing.laxity(n) <= bound;
      if (!slack_ok || processed.count(n) != 0) {
        cons.excluded.insert(n);
      }
    }
    std::vector<Match> pool = tmatch::enumerate_matches(g, lib, cons);
    // Prefer composite modules: a forced single-op matching carries no
    // information (any cover realizes it anyway).
    std::vector<Match> multi;
    for (const Match& m : pool) {
      if (m.size() >= 2) multi.push_back(m);
    }
    if (!multi.empty()) pool = std::move(multi);
    if (pool.empty()) break;

    const Match chosen =
        pool[stream.next_uint(static_cast<std::uint32_t>(pool.size()))];

    // Promote the boundary: producers of external inputs (unless primary
    // inputs/constants) and the match root become PPOs (Fig. 5 lines
    // 10-11: "each input and output node of the selected matching").
    for (const NodeId n : chosen.nodes) {
      for (EdgeId e : g.fanin(n)) {
        const cdfg::Edge& ed = g.edge(e);
        if (ed.kind != cdfg::EdgeKind::kData) continue;
        if (chosen.covers(ed.src)) continue;
        if (!cdfg::is_executable(g.node(ed.src).kind)) continue;
        wm.ppos.insert(ed.src);
      }
      processed.insert(n);
    }
    wm.ppos.insert(chosen.root());
    wm.enforced.push_back(chosen);
  }

  if (wm.enforced.empty()) return std::nullopt;
  return wm;
}

tmatch::CoverOptions cover_options(const TmWatermark& wm) {
  tmatch::CoverOptions opts;
  opts.enforced = wm.enforced;
  opts.ppo = wm.ppos;
  return opts;
}

}  // namespace lwm::wm
