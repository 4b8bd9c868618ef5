#include "wm/sched_constraints.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <cmath>
#include <unordered_map>

#include "cdfg/analysis.h"
#include "cdfg/timing_cache.h"
#include "exec/parallel.h"
#include "obs/obs.h"
#include "sched/kpaths.h"

namespace lwm::wm {

using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;

PlanContext PlanContext::build(const Graph& g, const SchedWmOptions& opts) {
  PlanContext ctx;
  ctx.timing = cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  const std::vector<NodeId> order =
      cdfg::topo_order(g, cdfg::EdgeFilter::all());
  ctx.topo_rank.assign(g.node_capacity(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ctx.topo_rank[order[i].value] = static_cast<std::uint32_t>(i);
  }
  if (opts.avoid_k_worst > 0) {
    ctx.on_worst_path.assign(g.node_capacity(), 0);
    for (const NodeId n : sched::k_worst_path_nodes(
             g, opts.avoid_k_worst, cdfg::EdgeFilter::specification())) {
      ctx.on_worst_path[n.value] = 1;
    }
  }
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ctx.ops.push_back(n);
  }
  return ctx;
}

namespace {

/// Plans one locality from the kCarveTag stream `carve`; the carve size
/// goes to `carved` for the caller's batch tally, or is recorded here.
std::optional<SchedWatermark> plan_impl(const Graph& g, NodeId root,
                                        const crypto::Signature& sig,
                                        const SchedWmOptions& opts,
                                        const PlanContext* ctx,
                                        const crypto::Bitstream& carve,
                                        std::size_t* carved = nullptr,
                                        CarveScratch* scratch = nullptr) {
  if (opts.k <= 0 || opts.epsilon <= 0.0) {
    throw std::invalid_argument("plan_sched_watermark: need k > 0 and epsilon > 0");
  }
  LWM_SPAN("wm/plan");
  const Domain domain = select_domain(g, root, carve, opts.domain, scratch);
  if (carved != nullptr) {
    *carved = domain.selected.size();
  } else {
    record_carves(std::array{domain.selected.size()});
  }

  // Timing of the *original specification*: the filters of Fig. 2 are
  // evaluated before any constraint is added.  With a context this is
  // precomputed; per-root work stays proportional to the locality.
  std::optional<cdfg::TimingInfo> own_timing;
  if (ctx == nullptr) {
    own_timing = cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  }
  const cdfg::TimingInfo& timing = ctx ? ctx->timing : *own_timing;
  const double laxity_bound = timing.critical_path * (1.0 - opts.epsilon);

  // Optional k-worst-path exclusion: under bounded delays the laxity
  // filter alone can admit a node that sits on a worst-case-critical
  // spine; mask those spines out of T' entirely.
  std::vector<char> own_worst;
  if (ctx == nullptr && opts.avoid_k_worst > 0) {
    own_worst.assign(g.node_capacity(), 0);
    for (const NodeId n : sched::k_worst_path_nodes(
             g, opts.avoid_k_worst, cdfg::EdgeFilter::specification())) {
      own_worst[n.value] = 1;
    }
  }
  const std::vector<char>& on_worst_path = ctx ? ctx->on_worst_path : own_worst;

  // T': slack-rich executable nodes of T with an overlap partner.
  std::vector<NodeId> t_prime;
  for (const NodeId n : domain.selected) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    if (!on_worst_path.empty() && on_worst_path[n.value]) continue;
    const int lax = timing.laxity(n);
    const bool pass = opts.paper_literal_laxity
                          ? (lax > laxity_bound)
                          : (lax <= laxity_bound);
    if (pass) t_prime.push_back(n);
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
  // graph edges, earlier embedded watermarks, or the edges planned so
  // far.  Without a context, the TimingCache transitive closure answers
  // each cycle check with an O(V/64) bitset probe and every planned edge
  // is folded into the closure once.  With a context, the check is the
  // topo-rank guard: rank(n_i) < rank(n_k) keeps every planned edge (in
  // this locality and every concurrently planned one) consistent with
  // one fixed topological order, so the union is acyclic with no closure
  // state at all.
  std::unique_ptr<cdfg::TimingCache> closure;
  if (ctx == nullptr) {
    closure = std::make_unique<cdfg::TimingCache>(g, -1, cdfg::EdgeFilter::all(),
                                                  /*with_reachability=*/true);
  }
  auto creates_cycle = [&](NodeId from, NodeId to) {
    if (ctx != nullptr) {
      return ctx->topo_rank[from.value] >= ctx->topo_rank[to.value];
    }
    return closure->reaches(to, from);
  };

  for (std::size_t i = 0; i < t_second.size(); ++i) {
    const NodeId ni = t_second[i];
    std::vector<NodeId> partners;
    for (std::size_t j = i + 1; j < t_second.size(); ++j) {
      const NodeId nj = t_second[j];
      if (!timing.windows_overlap(ni, nj)) continue;
      if (creates_cycle(ni, nj)) continue;
      partners.push_back(nj);
    }
    if (partners.empty()) continue;  // this n_i contributes no edge
    const NodeId nk =
        partners[stream.next_uint(static_cast<std::uint32_t>(partners.size()))];
    wm.constraints.push_back(
        TemporalConstraint{ni, nk, position.at(ni), position.at(nk)});
    if (closure) closure->add_extra_edge(ni, nk);
  }
  if (static_cast<int>(wm.constraints.size()) < std::max(1, opts.min_edges)) {
    LWM_COUNT("wm/plans_rejected", 1);
    return std::nullopt;
  }
  LWM_COUNT("wm/localities_planned", 1);
  LWM_COUNT("wm/constraints_planned", wm.constraints.size());
  return wm;
}

}  // namespace

std::optional<SchedWatermark> plan_sched_watermark(const Graph& g, NodeId root,
                                                   const crypto::Signature& sig,
                                                   const SchedWmOptions& opts) {
  return plan_impl(g, root, sig, opts, nullptr, sig.stream(DomainKey::kCarveTag));
}

std::optional<SchedWatermark> plan_sched_watermark(const Graph& g, NodeId root,
                                                   const crypto::Signature& sig,
                                                   const SchedWmOptions& opts,
                                                   const PlanContext& ctx) {
  return plan_impl(g, root, sig, opts, &ctx, sig.stream(DomainKey::kCarveTag));
}

std::optional<SchedWatermark> embed_sched_watermark(Graph& g, NodeId root,
                                                    const crypto::Signature& sig,
                                                    const SchedWmOptions& opts) {
  std::optional<SchedWatermark> wm = plan_sched_watermark(g, root, sig, opts);
  if (!wm) return std::nullopt;
  for (const TemporalConstraint& c : wm->constraints) {
    if (!g.has_edge(c.src, c.dst, EdgeKind::kTemporal)) {
      g.add_edge(c.src, c.dst, EdgeKind::kTemporal);
    }
  }
  return wm;
}

std::vector<SchedWatermark> embed_local_watermarks(Graph& g,
                                                   const crypto::Signature& sig,
                                                   int count,
                                                   const SchedWmOptions& opts,
                                                   int max_attempts) {
  std::vector<SchedWatermark> marks;
  crypto::Bitstream roots = sig.stream("lwm/roots");
  std::vector<bool> used(g.node_capacity(), false);
  for (int attempt = 0; attempt < max_attempts &&
                        static_cast<int>(marks.size()) < count;
       ++attempt) {
    const NodeId root = pick_root(g, roots);
    if (used[root.value]) continue;
    used[root.value] = true;
    std::optional<SchedWatermark> wm = embed_sched_watermark(g, root, sig, opts);
    if (wm) marks.push_back(std::move(*wm));
  }
  return marks;
}

std::vector<SchedWatermark> embed_local_watermarks_parallel(
    Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, exec::ThreadPool* pool, int max_attempts) {
  if (count <= 0) return {};
  const PlanContext ctx = PlanContext::build(g, opts);
  return embed_local_watermarks_parallel(g, sig, count, opts, pool, ctx,
                                         max_attempts);
}

std::vector<SchedWatermark> embed_local_watermarks_parallel(
    Graph& g, const crypto::Signature& sig, int count,
    const SchedWmOptions& opts, exec::ThreadPool* pool, const PlanContext& ctx,
    int max_attempts) {
  std::vector<SchedWatermark> marks;
  if (count <= 0) return marks;
  LWM_SPAN("wm/embed_parallel");
  if (ctx.ops.empty()) {
    throw std::invalid_argument(
        "embed_local_watermarks_parallel: graph has no operations");
  }

  // Candidate roots, drawn serially: the same "lwm/roots" stream and
  // first-hit dedupe as the serial embedder, but against the context's
  // precomputed op list instead of an O(V) pick_root scan per attempt.
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

  // Plan in waves: each wave maps candidate -> optional plan concurrently
  // (pure in g and ctx), then merges serially in candidate order until
  // `count` marks are accepted.  Wave boundaries depend only on `count`
  // and the candidate sequence, so records and edges are bit-identical
  // at every thread count.
  const std::size_t wave_size =
      std::max<std::size_t>(64, 2 * static_cast<std::size_t>(count));
  const crypto::Bitstream carve = sig.stream(DomainKey::kCarveTag);
  std::vector<std::optional<SchedWatermark>> planned;
  std::vector<std::size_t> carved;
  for (std::size_t base = 0;
       base < candidates.size() && static_cast<int>(marks.size()) < count;
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
            planned[i] = plan_impl(g, candidates[base + i], sig, opts, &ctx,
                                   carve, &carved[i], &scratch);
          }
        });
    record_carves(carved);
    for (std::size_t i = 0;
         i < n && static_cast<int>(marks.size()) < count; ++i) {
      if (!planned[i]) continue;
      for (const TemporalConstraint& c : planned[i]->constraints) {
        if (!g.has_edge(c.src, c.dst, EdgeKind::kTemporal)) {
          g.add_edge(c.src, c.dst, EdgeKind::kTemporal);
        }
      }
      marks.push_back(std::move(*planned[i]));
    }
  }
  return marks;
}

std::vector<SchedWatermark> embed_watermarks_until_edges(
    Graph& g, const crypto::Signature& sig, int target_edges,
    const SchedWmOptions& opts, int max_attempts) {
  std::vector<SchedWatermark> marks;
  crypto::Bitstream roots = sig.stream("lwm/roots");
  std::vector<bool> used(g.node_capacity(), false);
  int edges = 0;
  for (int attempt = 0; attempt < max_attempts && edges < target_edges;
       ++attempt) {
    const NodeId root = pick_root(g, roots);
    if (root.value < used.size() && used[root.value]) continue;
    if (root.value < used.size()) used[root.value] = true;
    std::optional<SchedWatermark> wm = embed_sched_watermark(g, root, sig, opts);
    if (wm) {
      edges += static_cast<int>(wm->constraints.size());
      marks.push_back(std::move(*wm));
    }
  }
  return marks;
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
