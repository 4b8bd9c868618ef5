// detect_oracle.h — brute-force reference for the scheduling detector.
//
// Paper §IV-A stated directly: carve every executable root with the
// author's signature, compare the carve with the memorized fingerprint,
// count the constraints.  No prefilter, no key grouping, no chunking and
// no code shared with the detector's gate or its carve (the carve is the
// reference one of locality_oracle.h), so the scan's reports can be
// checked against it.
#pragma once

#include <map>
#include <optional>

#include "locality_oracle.h"
#include "wm/detector.h"

namespace lwm::wm::oracle {

/// The detector's carve prefilter stated directly: a carve at `root` can
/// pass `rec`'s gate only if the root's op ends the memorized subtree and
/// the subtree's op multiset fits inside the root's fan-in cone (the
/// carve selects a subset of it).  Counts over the reference cone, with
/// no saturation.
inline bool may_carve(const cdfg::Graph& g, cdfg::NodeId root,
                      const SchedRecord& rec) {
  if (rec.subtree_ops.empty() ||
      rec.subtree_ops.back() != cdfg::functional_id(g.node(root).kind)) {
    return false;
  }
  std::map<int, int> spare;
  for (const cdfg::ConeNode& c : detail::cone_of(g, root, rec.domain.tau)) {
    ++spare[cdfg::functional_id(g.node(c.node).kind)];
  }
  for (const int op : rec.subtree_ops) {
    if (--spare[op] < 0) return false;
  }
  return true;
}

/// The verdict at one root: nullopt when the carve is not the memorized
/// subtree or a recorded position falls outside it.
inline std::optional<SchedHit> hit_at(const cdfg::Graph& g,
                                      const sched::Schedule& s,
                                      const crypto::Signature& sig,
                                      const SchedRecord& rec,
                                      cdfg::NodeId root) {
  const Domain d = oracle::select_domain(g, root, sig, rec.domain);
  if (d.selected.size() != rec.subtree_ops.size()) return std::nullopt;
  for (std::size_t i = 0; i < d.selected.size(); ++i) {
    if (cdfg::functional_id(g.node(d.selected[i]).kind) != rec.subtree_ops[i]) {
      return std::nullopt;
    }
  }
  const int size = static_cast<int>(d.selected.size());
  SchedHit hit{root};
  for (const auto& [a, b] : rec.positions) {
    if (a < 0 || b < 0 || a >= size || b >= size) return std::nullopt;
    const cdfg::NodeId src = d.selected[static_cast<std::size_t>(a)];
    const cdfg::NodeId dst = d.selected[static_cast<std::size_t>(b)];
    ++hit.total;
    if (s.is_scheduled(src) && s.is_scheduled(dst) &&
        s.start_of(src) + g.node(src).delay <= s.start_of(dst)) {
      ++hit.satisfied;
    }
  }
  return hit;
}

/// The full report: hits in root order; best_root is the first root
/// passing the gate with the greatest satisfied count.
inline SchedDetectionReport detect(const cdfg::Graph& g,
                                   const sched::Schedule& s,
                                   const crypto::Signature& sig,
                                   const SchedRecord& rec) {
  SchedDetectionReport report;
  int best = -1;
  for (const cdfg::NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    ++report.roots_scanned;
    const std::optional<SchedHit> hit = hit_at(g, s, sig, rec, n);
    if (!hit) continue;
    if (hit->full()) report.hits.push_back(*hit);
    if (hit->satisfied > best) {
      best = hit->satisfied;
      report.best_root = n;
    }
  }
  return report;
}

}  // namespace lwm::wm::oracle
