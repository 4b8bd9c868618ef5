#include "wm/reg_constraints.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace lwm::wm {

using cdfg::Graph;
using cdfg::NodeId;
using regbind::Lifetime;

namespace {

/// Index lifetimes by producer for O(1) lookup.
std::unordered_map<NodeId, const Lifetime*> by_producer(
    const std::vector<Lifetime>& lifetimes) {
  std::unordered_map<NodeId, const Lifetime*> map;
  for (const Lifetime& lt : lifetimes) map[lt.producer] = &lt;
  return map;
}

}  // namespace

std::optional<RegWatermark> plan_reg_watermark(
    const Graph& g, const std::vector<Lifetime>& lifetimes, NodeId root,
    const crypto::Signature& sig, const RegWmOptions& opts) {
  if (opts.m <= 0) {
    throw std::invalid_argument("plan_reg_watermark: need m > 0");
  }
  const Domain domain = select_domain(g, root, sig, opts.domain);
  record_carves(std::array{domain.selected.size()});
  const auto lt_of = by_producer(lifetimes);

  // Candidate variables: produced inside the carved subtree.
  std::vector<NodeId> pool;
  std::unordered_map<NodeId, int> position;
  for (std::size_t i = 0; i < domain.selected.size(); ++i) {
    const NodeId n = domain.selected[i];
    position[n] = static_cast<int>(i);
    if (lt_of.count(n) != 0) pool.push_back(n);
  }
  if (pool.size() < 2) return std::nullopt;

  crypto::Bitstream stream = sig.stream(RegWmOptions::kSelectTag);
  const std::vector<std::uint32_t> pick = stream.ordered_sample(
      static_cast<std::uint32_t>(pool.size()),
      std::min<std::uint32_t>(static_cast<std::uint32_t>(pool.size()),
                              static_cast<std::uint32_t>(2 * opts.m)));
  std::vector<NodeId> selection;
  selection.reserve(pick.size());
  for (const std::uint32_t idx : pick) selection.push_back(pool[idx]);

  RegWatermark wm;
  wm.root = root;
  wm.options = opts;
  wm.subtree = domain.selected;

  // Pair each selected u with a compatible later partner.  Pairs are
  // kept *disjoint* (a variable joins at most one share pair): chained
  // shares merge whole neighborhoods into a handful of registers, after
  // which almost any position pair inside the locality is co-located —
  // destroying the watermark's discriminative power.
  std::unordered_set<NodeId> used;
  auto compatible = [&](NodeId a, NodeId b) {
    const Lifetime& la = *lt_of.at(a);
    const Lifetime& lb = *lt_of.at(b);
    if (la.overlaps(lb)) return false;
    // Abutting lifetimes (death == birth, the producer->consumer
    // pattern) are exactly what any left-edge binder reuses a register
    // for — sharing them carries no authorship information.  Require a
    // real gap.
    if (la.death == lb.birth || lb.death == la.birth) return false;
    return true;
  };

  for (std::size_t i = 0;
       i < selection.size() && static_cast<int>(wm.constraints.size()) < opts.m;
       ++i) {
    const NodeId u = selection[i];
    if (used.count(u) != 0) continue;
    std::vector<NodeId> partners;
    for (std::size_t j = i + 1; j < selection.size(); ++j) {
      const NodeId v = selection[j];
      if (used.count(v) == 0 && compatible(u, v)) partners.push_back(v);
    }
    if (partners.empty()) continue;
    const NodeId v =
        partners[stream.next_uint(static_cast<std::uint32_t>(partners.size()))];
    used.insert(u);
    used.insert(v);
    wm.constraints.push_back(
        ShareConstraint{u, v, position.at(u), position.at(v)});
  }
  if (static_cast<int>(wm.constraints.size()) < std::max(1, opts.min_pairs)) {
    return std::nullopt;
  }
  return wm;
}

std::vector<RegWatermark> plan_reg_watermarks(
    const Graph& g, const std::vector<Lifetime>& lifetimes,
    const crypto::Signature& sig, int count, const RegWmOptions& opts,
    int max_attempts) {
  std::vector<RegWatermark> marks;
  crypto::Bitstream roots = sig.stream("lwm/reg-roots");
  // The executable nodes in id order, built once; each attempt draws one.
  std::vector<NodeId> ops;
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  std::vector<bool> used(g.node_capacity(), false);
  for (int attempt = 0;
       attempt < max_attempts && static_cast<int>(marks.size()) < count;
       ++attempt) {
    if (ops.empty()) {
      throw std::invalid_argument(
          "plan_reg_watermarks: graph has no operations");
    }
    const NodeId root =
        ops[roots.next_uint(static_cast<std::uint32_t>(ops.size()))];
    if (used[root.value]) continue;
    used[root.value] = true;
    auto wm = plan_reg_watermark(g, lifetimes, root, sig, opts);
    if (!wm) continue;
    // Cross-watermark consistency: merging this mark's shares with the
    // already-accepted ones must stay bindable.
    std::vector<RegWatermark> trial = marks;
    trial.push_back(*wm);
    if (regbind::left_edge_binding(lifetimes, to_binding_constraints(trial))) {
      marks.push_back(std::move(*wm));
    }
  }
  return marks;
}

regbind::BindingConstraints to_binding_constraints(
    std::span<const RegWatermark> marks) {
  regbind::BindingConstraints c;
  for (const RegWatermark& wm : marks) {
    for (const ShareConstraint& s : wm.constraints) {
      c.share.emplace_back(s.u, s.v);
    }
  }
  return c;
}

RegRecord RegRecord::from(const RegWatermark& wm, const Graph& g) {
  RegRecord r;
  r.domain = wm.options.domain;
  r.m = wm.options.m;
  for (const ShareConstraint& c : wm.constraints) {
    r.positions.emplace_back(c.u_pos, c.v_pos);
  }
  r.subtree_ops.reserve(wm.subtree.size());
  for (const NodeId n : wm.subtree) {
    r.subtree_ops.push_back(cdfg::functional_id(g.node(n).kind));
  }
  return r;
}

namespace {

RegHit verify_reg_at(const Graph& suspect,
                     const std::vector<Lifetime>& lifetimes,
                     const regbind::Binding& binding,
                     const crypto::Signature& sig, const RegRecord& record,
                     NodeId root) {
  RegHit hit;
  hit.root = root;
  // Cheap structural prefilter before the full re-derivation.
  const Domain d = select_domain(suspect, root, sig, record.domain);
  record_carves(std::array{d.selected.size()});
  if (!subtree_matches(suspect, d, record.subtree_ops)) return hit;

  // Authorship binding: re-run the marking process with the claimant's
  // signature and demand it reproduce the record's positions exactly.
  RegWmOptions opts;
  opts.domain = record.domain;
  opts.m = record.m > 0 ? record.m : static_cast<int>(record.positions.size());
  opts.min_pairs = 1;
  const std::optional<RegWatermark> derived =
      plan_reg_watermark(suspect, lifetimes, root, sig, opts);
  if (!derived || derived->constraints.size() != record.positions.size()) {
    return hit;
  }
  for (std::size_t i = 0; i < record.positions.size(); ++i) {
    if (derived->constraints[i].u_pos != record.positions[i].first ||
        derived->constraints[i].v_pos != record.positions[i].second) {
      return hit;
    }
  }

  // Presence: the suspect binding co-locates every derived pair.
  for (const ShareConstraint& c : derived->constraints) {
    ++hit.total;
    const int ru = binding.reg(c.u);
    const int rv = binding.reg(c.v);
    if (ru >= 0 && ru == rv) ++hit.satisfied;
  }
  return hit;
}

}  // namespace

RegDetectionReport detect_reg_watermark(const Graph& suspect,
                                        const std::vector<Lifetime>& lifetimes,
                                        const regbind::Binding& binding,
                                        const crypto::Signature& sig,
                                        const RegRecord& record) {
  RegDetectionReport report;
  for (NodeId n : suspect.nodes()) {
    if (!cdfg::is_executable(suspect.node(n).kind)) continue;
    ++report.roots_scanned;
    const RegHit hit =
        verify_reg_at(suspect, lifetimes, binding, sig, record, n);
    if (hit.full()) report.hits.push_back(hit);
  }
  return report;
}

double log10_reg_pc(const Graph& g, const std::vector<Lifetime>& lifetimes,
                    std::span<const RegWatermark> marks) {
  (void)g;
  const auto lt_of = by_producer(lifetimes);
  double log10_pc = 0.0;
  for (const RegWatermark& wm : marks) {
    for (const ShareConstraint& c : wm.constraints) {
      const auto u = lt_of.find(c.u);
      if (u == lt_of.end()) continue;
      // Variables u could share with (design-wide): the uniform model
      // says an unconstrained binder picks one of them (or a fresh
      // register) for u's slot-mate.
      long long compatible = 0;
      for (const Lifetime& lt : lifetimes) {
        if (lt.producer != c.u && !lt.overlaps(*u->second)) ++compatible;
      }
      if (compatible > 1) {
        log10_pc -= std::log10(static_cast<double>(compatible));
      }
    }
  }
  return log10_pc;
}

}  // namespace lwm::wm
