#include "wm/sched_constraints.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "cdfg/analysis.h"
#include "exec/parallel.h"
#include "obs/obs.h"

namespace lwm::wm {

using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;

PlanContext PlanContext::build(const Graph& g) {
  PlanContext ctx;
  ctx.timing = cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  const std::vector<NodeId> order =
      cdfg::topo_order(g, cdfg::EdgeFilter::all());
  ctx.topo_rank.assign(g.node_capacity(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ctx.topo_rank[order[i].value] = static_cast<std::uint32_t>(i);
  }
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ctx.ops.push_back(n);
  }
  return ctx;
}

namespace {

/// reach[i * K + j]: t[j] is reachable from t[i] in `g` over every edge
/// kind (reflexive).  The seed of the exact cycle guard.
std::vector<char> member_reachability(const Graph& g,
                                      const std::vector<NodeId>& t) {
  const std::size_t k = t.size();
  std::vector<char> reach(k * k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      reach[i * k + j] = i == j || cdfg::reaches(g, t[i], t[j]);
    }
  }
  return reach;
}

/// Plans one locality from the kCarveTag stream `carve`; the carve size
/// goes to `carved` for the caller's tally.  Whole-graph state comes
/// from `ctx`; `exact_guard` picks the cycle check (see the header).
std::optional<SchedWatermark> plan_impl(const Graph& g, NodeId root,
                                        const crypto::Signature& sig,
                                        const SchedWmOptions& opts,
                                        const PlanContext& ctx,
                                        bool exact_guard,
                                        const crypto::Bitstream& carve,
                                        std::size_t& carved,
                                        CarveScratch* scratch = nullptr) {
  if (opts.k <= 0 || opts.epsilon <= 0.0) {
    throw std::invalid_argument("plan_sched_watermark: need k > 0 and epsilon > 0");
  }
  LWM_SPAN("wm/plan");
  const Domain domain = select_domain(g, root, carve, opts.domain, scratch);
  carved = domain.selected.size();

  // Timing of the *original specification*: the filters of Fig. 2 are
  // evaluated before any constraint is added, so the context's timing
  // (temporal edges ignored) serves every plan of the call.
  const cdfg::TimingInfo& timing = ctx.timing;
  const double laxity_bound = timing.critical_path * (1.0 - opts.epsilon);

  // T': slack-rich executable nodes of T with an overlap partner (the
  // laxity test reads Fig. 2's ">" as "<=", see the header).
  std::vector<NodeId> t_prime;
  for (const NodeId n : domain.selected) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    if (timing.laxity(n) <= laxity_bound) t_prime.push_back(n);
  }
  // Overlap requirement: every member needs a window-overlap partner
  // among the other candidates.
  std::vector<NodeId> filtered;
  for (const NodeId a : t_prime) {
    for (const NodeId b : t_prime) {
      if (a != b && timing.windows_overlap(a, b)) {
        filtered.push_back(a);
        break;
      }
    }
  }
  t_prime = std::move(filtered);

  const int tau_prime_min =
      opts.tau_prime_min > 0 ? opts.tau_prime_min : std::max(opts.k, 2);
  if (static_cast<int>(t_prime.size()) < tau_prime_min) {
    LWM_COUNT("wm/plans_rejected", 1);
    return std::nullopt;  // caller repeats subtree selection elsewhere
  }
  const int k = std::min<int>(opts.k, static_cast<int>(t_prime.size()));

  // Positions within the ordered carved subtree (detector coordinates).
  std::unordered_map<NodeId, int> position;
  for (std::size_t i = 0; i < domain.selected.size(); ++i) {
    position[domain.selected[i]] = static_cast<int>(i);
  }

  // T'': ordered selection of K nodes via the author's bitstream.
  crypto::Bitstream stream = sig.stream(SchedWmOptions::kSelectTag);
  const std::vector<std::uint32_t> pick = stream.ordered_sample(
      static_cast<std::uint32_t>(t_prime.size()), static_cast<std::uint32_t>(k));
  std::vector<NodeId> t_second;
  t_second.reserve(pick.size());
  for (const std::uint32_t idx : pick) t_second.push_back(t_prime[idx]);

  SchedWatermark wm;
  wm.root = root;
  wm.options = opts;
  wm.subtree = domain.selected;

  // Draw temporal edges: each n_i targets a later T'' member with an
  // overlapping window; adding n_i -> n_k must not close a cycle through
  // graph edges (earlier embedded marks included) or the edges planned
  // so far.  The rank guard admits only rank(n_i) < rank(n_k).  The
  // exact guard keeps reachability among the T'' members: planned edges
  // only join members, so a member-to-member path through them is a
  // chain of graph paths and planned edges, and closing the K x K table
  // over each accepted edge keeps it exact.
  const std::size_t kk = t_second.size();
  std::vector<char> reach;
  if (exact_guard) reach = member_reachability(g, t_second);
  for (std::size_t i = 0; i < kk; ++i) {
    const NodeId ni = t_second[i];
    std::vector<std::size_t> partners;
    for (std::size_t j = i + 1; j < kk; ++j) {
      const NodeId nj = t_second[j];
      if (!timing.windows_overlap(ni, nj)) continue;
      const bool cycle = exact_guard
                             ? reach[j * kk + i] != 0
                             : ctx.topo_rank[ni.value] >= ctx.topo_rank[nj.value];
      if (!cycle) partners.push_back(j);
    }
    if (partners.empty()) continue;  // this n_i contributes no edge
    const std::size_t j =
        partners[stream.next_uint(static_cast<std::uint32_t>(partners.size()))];
    const NodeId nk = t_second[j];
    wm.constraints.push_back(
        TemporalConstraint{ni, nk, position.at(ni), position.at(nk)});
    if (exact_guard) {
      // Whatever reaches n_i now reaches everything n_k reaches.
      for (std::size_t a = 0; a < kk; ++a) {
        if (!reach[a * kk + i]) continue;
        for (std::size_t b = 0; b < kk; ++b) {
          if (reach[j * kk + b]) reach[a * kk + b] = 1;
        }
      }
    }
  }
  if (static_cast<int>(wm.constraints.size()) < std::max(1, opts.min_edges)) {
    LWM_COUNT("wm/plans_rejected", 1);
    return std::nullopt;
  }
  LWM_COUNT("wm/localities_planned", 1);
  LWM_COUNT("wm/constraints_planned", wm.constraints.size());
  return wm;
}

void add_constraints(Graph& g, const SchedWatermark& wm) {
  for (const TemporalConstraint& c : wm.constraints) {
    if (!g.has_edge(c.src, c.dst, EdgeKind::kTemporal)) {
      g.add_edge(c.src, c.dst, EdgeKind::kTemporal);
    }
  }
}

constexpr int kUnbounded = std::numeric_limits<int>::max();

/// The embed engine behind every multi-mark entry point (contract in the
/// header): stops at `count` marks or `target_edges` temporal edges,
/// whichever comes first, and builds its own context when `resident` is
/// null.  Under the exact guard a wave holds one candidate, so each plan
/// sees the edges of the marks accepted before it.
std::vector<SchedWatermark> embed_marks(Graph& g, const crypto::Signature& sig,
                                        const SchedWmOptions& opts,
                                        exec::ThreadPool* pool,
                                        const PlanContext* resident, int count,
                                        int target_edges, int max_attempts,
                                        bool exact_guard) {
  std::vector<SchedWatermark> marks;
  if (count <= 0 || target_edges <= 0) return marks;
  LWM_SPAN("wm/embed_marks");
  std::optional<PlanContext> own;
  const PlanContext& ctx =
      resident != nullptr ? *resident : own.emplace(PlanContext::build(g));
  if (ctx.ops.empty()) {
    throw std::invalid_argument("wm embed: graph has no executable operations");
  }

  crypto::Bitstream roots = sig.stream("lwm/roots");
  std::vector<bool> used(g.node_capacity(), false);
  std::vector<NodeId> candidates;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const NodeId root =
        ctx.ops[roots.next_uint(static_cast<std::uint32_t>(ctx.ops.size()))];
    if (used[root.value]) continue;
    used[root.value] = true;
    candidates.push_back(root);
  }

  const std::size_t wave_size =
      exact_guard ? 1
                  : std::max<std::size_t>(64, 2 * static_cast<std::size_t>(count));
  const crypto::Bitstream carve = sig.stream(DomainKey::kCarveTag);
  std::vector<std::optional<SchedWatermark>> planned;
  std::vector<std::size_t> carved;
  int edges = 0;
  const auto wanted = [&] {
    return static_cast<int>(marks.size()) < count && edges < target_edges;
  };
  for (std::size_t base = 0; base < candidates.size() && wanted();
       base += wave_size) {
    const std::size_t n = std::min(wave_size, candidates.size() - base);
    LWM_COUNT("wm/embed_plan_waves", 1);
    LWM_COUNT("wm/embed_plan_candidates", n);
    planned.assign(n, std::nullopt);
    carved.assign(n, 0);
    exec::parallel_for_ranges(
        pool, n, exec::suggested_chunks(pool, n),
        [&](std::size_t begin, std::size_t end) {
          CarveScratch scratch;  // freed with the chunk
          for (std::size_t i = begin; i < end; ++i) {
            planned[i] = plan_impl(g, candidates[base + i], sig, opts, ctx,
                                   exact_guard, carve, carved[i], &scratch);
          }
        });
    record_carves(carved);
    for (std::size_t i = 0; i < n && wanted(); ++i) {
      if (!planned[i]) continue;
      add_constraints(g, *planned[i]);
      edges += static_cast<int>(planned[i]->constraints.size());
      marks.push_back(std::move(*planned[i]));
    }
  }
  return marks;
}

}  // namespace

std::optional<SchedWatermark> plan_sched_watermark(const Graph& g, NodeId root,
                                                   const crypto::Signature& sig,
                                                   const SchedWmOptions& opts) {
  std::size_t carved = 0;
  std::optional<SchedWatermark> wm =
      plan_impl(g, root, sig, opts, PlanContext::build(g),
                /*exact_guard=*/true, sig.stream(DomainKey::kCarveTag), carved);
  record_carves(std::array{carved});
  return wm;
}

std::optional<SchedWatermark> embed_sched_watermark(Graph& g, NodeId root,
                                                    const crypto::Signature& sig,
                                                    const SchedWmOptions& opts) {
  std::optional<SchedWatermark> wm = plan_sched_watermark(g, root, sig, opts);
  if (wm) add_constraints(g, *wm);
  return wm;
}

std::vector<SchedWatermark> embed_local_watermarks(Graph& g,
                                                   const crypto::Signature& sig,
                                                   int count,
                                                   const SchedWmOptions& opts,
                                                   int max_attempts) {
  return embed_marks(g, sig, opts, nullptr, nullptr, count, kUnbounded,
                     max_attempts, /*exact_guard=*/true);
}

std::vector<SchedWatermark> embed_local_watermarks_parallel(
    Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, exec::ThreadPool* pool, int max_attempts) {
  return embed_marks(g, sig, opts, pool, nullptr, count, kUnbounded,
                     max_attempts, /*exact_guard=*/false);
}

std::vector<SchedWatermark> embed_local_watermarks_parallel(
    Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, exec::ThreadPool* pool, const PlanContext& ctx,
    int max_attempts) {
  return embed_marks(g, sig, opts, pool, &ctx, count, kUnbounded, max_attempts,
                     /*exact_guard=*/false);
}

std::vector<SchedWatermark> embed_watermarks_until_edges(
    Graph& g, const crypto::Signature& sig, int target_edges,
    const SchedWmOptions& opts, int max_attempts) {
  return embed_marks(g, sig, opts, nullptr, nullptr, kUnbounded, target_edges,
                     max_attempts, /*exact_guard=*/true);
}

std::vector<NodeId> materialize_with_unit_ops(
    Graph& g, const std::vector<SchedWatermark>& marks) {
  std::vector<NodeId> inserted;
  for (const SchedWatermark& wm : marks) {
    for (const TemporalConstraint& c : wm.constraints) {
      // Drop the abstract temporal edge if it is present...
      for (cdfg::EdgeId e : g.edges_of(EdgeKind::kTemporal)) {
        const cdfg::Edge& ed = g.edge(e);
        if (ed.src == c.src && ed.dst == c.dst) {
          g.remove_edge(e);
          break;
        }
      }
      // ...and realize it as src -> unit -> dst dataflow (add of a zero).
      const NodeId u = g.add_node(cdfg::OpKind::kUnit);
      g.add_edge(c.src, u, EdgeKind::kData);
      g.add_edge(u, c.dst, EdgeKind::kData);
      inserted.push_back(u);
    }
  }
  return inserted;
}

}  // namespace lwm::wm
