#include "sched/bnb.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cdfg/timing_cache.h"
#include "exec/parallel.h"
#include "obs/obs.h"
#include "sched/list_sched.h"

namespace lwm::sched {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

// Everything about (graph, filter) the search needs but no search step
// mutates — built once and shared by every branch.
struct SearchContext {
  const Graph* g = nullptr;
  std::vector<NodeId> ops;                    // executable nodes, topo order
  std::vector<int> delay, tail;               // by op index
  std::vector<std::size_t> cls;               // by op index
  std::vector<std::vector<std::size_t>> succ; // by op index: dependent ops
};

SearchContext build_context(const Graph& g, cdfg::EdgeFilter filter) {
  SearchContext ctx;
  ctx.g = &g;

  const cdfg::TimingCache timing(g, -1, filter);

  // Executable ops in topo order; predecessors collapsed through
  // pseudo-ops (a pseudo-op has zero delay, so its own executable
  // predecessors constrain its consumers directly).
  std::vector<std::vector<NodeId>> preds(g.node_capacity());
  std::vector<std::size_t> index_of(g.node_capacity(), 0);
  for (NodeId n : timing.topo()) {
    if (cdfg::is_executable(g.node(n).kind)) {
      index_of[n.value] = ctx.ops.size();
      ctx.ops.push_back(n);
    }
    for (EdgeId e : g.fanin(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      if (cdfg::is_executable(g.node(ed.src).kind)) {
        preds[n.value].push_back(ed.src);
      } else {
        for (NodeId pp : preds[ed.src.value]) preds[n.value].push_back(pp);
      }
    }
  }
  const std::size_t count = ctx.ops.size();
  ctx.delay.resize(count);
  ctx.tail.resize(count);
  ctx.cls.resize(count);
  ctx.succ.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId n = ctx.ops[i];
    ctx.delay[i] = g.node(n).delay;
    // latency - alap(n) = delay(n) + longest tail after completion.
    ctx.tail[i] = timing.latency() - timing.hi(n);
    ctx.cls[i] = static_cast<std::size_t>(cdfg::unit_class(g.node(n).kind));
    for (NodeId p : preds[n.value]) ctx.succ[index_of[p.value]].push_back(i);
  }
  return ctx;
}

// Incumbent shared by every branch of one search.  The packed key orders
// (latency, branch index) lexicographically; it only ever decreases, and
// all writes happen under the mutex.
struct Incumbent {
  static constexpr int kBranchShift = 32;
  std::atomic<std::uint64_t> key;
  std::mutex mutex;
  Schedule best;

  explicit Incumbent(int bound_init)
      : key(static_cast<std::uint64_t>(bound_init) << kBranchShift) {}
};

// Shared node budget with batched draining (the enumerate.cpp idiom):
// branches count locally and settle a quantum at a time, so the atomic is
// touched rarely with generous limits but the stop still fires promptly
// with tiny ones.
struct Budget {
  std::uint64_t limit = 0;  // 0 = unlimited
  std::uint64_t quantum = 1024;
  std::atomic<std::uint64_t> used{0};
  std::atomic<bool> stop{false};

  explicit Budget(std::uint64_t node_limit) : limit(node_limit) {
    if (limit != 0) quantum = std::clamp<std::uint64_t>(limit / 8, 1, 1024);
  }
  void settle(std::uint64_t n) {
    if (n == 0) return;
    const std::uint64_t total =
        used.fetch_add(n, std::memory_order_acq_rel) + n;
    if (limit != 0 && total >= limit) {
      stop.store(true, std::memory_order_release);
    }
  }
};

struct VectorHash {
  std::size_t operator()(const std::vector<int>& v) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (const int x : v) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x));
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

// Depth-first search of one first-level branch.  Mirrors the historical
// serial searcher step for step; the only cross-branch coupling is the
// shared incumbent (read for pruning, written under its mutex) and the
// node budget.
struct BranchSearcher {
  const SearchContext& ctx;
  const ResourceSet& resources;
  Incumbent& inc;
  Budget& budget;
  std::uint64_t branch = 0;
  // Memoize only the shallow levels: few search nodes live there, each
  // pruned subtree is exponentially large, and the signature cost stays
  // negligible next to the subtree it can save.  Deep levels churn
  // through millions of tiny subtrees where building a signature costs
  // more than the subtree itself.
  std::size_t memo_max_idx = 0;

  Schedule current;
  std::vector<std::vector<int>> usage{cdfg::kNumUnitClasses};
  std::vector<int> ready;  // partial ready time per op index
  std::vector<std::pair<std::size_t, int>> ready_undo;
  int prefix_end = 0;
  std::uint64_t local_nodes = 0;
  std::uint64_t total_nodes = 0;
  // Observability tallies: fields (not locals) so the increments stay
  // branch-free in the hot loop and flush as one LWM_COUNT per branch.
  std::uint64_t pruned_bound = 0;
  std::uint64_t pruned_dominance = 0;
  std::uint64_t incumbent_updates = 0;

  // Dominance memo: signature -> best prefix makespan seen.  Bounded so a
  // pathological search cannot exhaust memory; lookups still prune after
  // the cap, inserts stop.
  static constexpr std::size_t kMemoCap = 1 << 20;
  std::unordered_map<std::vector<int>, int, VectorHash> memo;
  std::vector<int> key_buf;  // reused across lookups; copied only on insert

  BranchSearcher(const SearchContext& c, const ResourceSet& res, Incumbent& i,
                 Budget& b)
      : ctx(c), resources(res), inc(i), budget(b), current(*c.g),
        ready(c.ops.size(), 0) {}

  [[nodiscard]] bool stopped() const {
    return budget.stop.load(std::memory_order_acquire);
  }

  void count_node() {
    ++local_nodes;
    ++total_nodes;
    if (local_nodes >= budget.quantum) {
      budget.settle(local_nodes);
      local_nodes = 0;
    }
  }

  void finish() { budget.settle(local_nodes); local_nodes = 0; }

  // (position, remaining ready times, usage suffix at/after the earliest
  // step any remaining op can issue).  Two search states with equal
  // signatures admit exactly the same completions, so the one entered
  // with the higher prefix makespan cannot produce a strictly better (or
  // equally good but earlier) leaf than the other.
  [[nodiscard]] bool memo_allows(std::size_t idx) {
    const std::size_t count = ctx.ops.size();
    int s_min = INT_MAX;
    for (std::size_t j = idx; j < count; ++j) s_min = std::min(s_min, ready[j]);
    key_buf.clear();
    key_buf.push_back(static_cast<int>(idx));
    for (std::size_t j = idx; j < count; ++j) key_buf.push_back(ready[j]);
    for (std::size_t c = 0; c < cdfg::kNumUnitClasses; ++c) {
      if (resources.count(static_cast<cdfg::UnitClass>(c)) < 0) continue;
      key_buf.push_back(-1);  // class separator
      const std::vector<int>& row = usage[c];
      std::size_t end = row.size();
      while (end > static_cast<std::size_t>(s_min) && row[end - 1] == 0) --end;
      for (std::size_t s = static_cast<std::size_t>(s_min); s < end; ++s) {
        key_buf.push_back(row[s]);
      }
    }
    const auto it = memo.find(key_buf);
    if (it != memo.end()) {
      if (it->second <= prefix_end) return false;
      it->second = prefix_end;
    } else if (memo.size() < kMemoCap) {
      memo.emplace(key_buf, prefix_end);
    }
    return true;
  }

  void record_leaf() {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(prefix_end) << Incumbent::kBranchShift) |
        branch;
    if (packed < inc.key.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(inc.mutex);
      if (packed < inc.key.load(std::memory_order_relaxed)) {
        inc.best = current;
        inc.key.store(packed, std::memory_order_release);
        ++incumbent_updates;
      }
    }
  }

  // Occupies op `idx` at step t and recurses.  Returns false when the
  // whole search should unwind (budget exhausted).
  bool descend(std::size_t idx, int t) {
    const std::size_t c = ctx.cls[idx];
    const int limit = resources.count(static_cast<cdfg::UnitClass>(c));
    const int delay = ctx.delay[idx];
    if (limit >= 0) {
      for (int d = 0; d < delay; ++d) {
        const auto step = static_cast<std::size_t>(t + d);
        if (step >= usage[c].size()) usage[c].resize(step + 1, 0);
        ++usage[c][step];
      }
    }
    current.set_start(ctx.ops[idx], t);
    const std::size_t undo_base = ready_undo.size();
    const int old_end = prefix_end;
    for (const std::size_t j : ctx.succ[idx]) {
      if (t + delay > ready[j]) {
        ready_undo.emplace_back(j, ready[j]);
        ready[j] = t + delay;
      }
    }
    prefix_end = std::max(prefix_end, t + delay);

    dfs(idx + 1);

    prefix_end = old_end;
    while (ready_undo.size() > undo_base) {
      ready[ready_undo.back().first] = ready_undo.back().second;
      ready_undo.pop_back();
    }
    if (limit >= 0) {
      for (int d = 0; d < delay; ++d) {
        --usage[c][static_cast<std::size_t>(t + d)];
      }
    }
    return !stopped();
  }

  void dfs(std::size_t idx) {
    if (stopped()) return;
    count_node();
    if (idx == ctx.ops.size()) {
      record_leaf();
      return;
    }
    if (idx < memo_max_idx && !memo_allows(idx)) {
      ++pruned_dominance;
      return;
    }
    const std::size_t c = ctx.cls[idx];
    const int limit = resources.count(static_cast<cdfg::UnitClass>(c));
    const int delay = ctx.delay[idx];
    for (int t = ready[idx];; ++t) {
      const std::uint64_t packed =
          (static_cast<std::uint64_t>(t + ctx.tail[idx])
           << Incumbent::kBranchShift) |
          branch;
      if (packed >= inc.key.load(std::memory_order_acquire)) {
        ++pruned_bound;
        break;
      }
      bool fits = true;
      if (limit >= 0) {
        for (int d = 0; d < delay && fits; ++d) {
          const auto step = static_cast<std::size_t>(t + d);
          if (step < usage[c].size() && usage[c][step] >= limit) fits = false;
        }
      }
      if (!fits) continue;
      if (!descend(idx, t)) return;
    }
    current.set_start(ctx.ops[idx], Schedule::kUnscheduled);
  }
};

struct SolveOutcome {
  Schedule best;
  int latency = 0;
  bool improved = false;
  bool truncated = false;
  std::uint64_t nodes = 0;
};

// Finds the minimum-latency schedule strictly below `bound_init`.
SolveOutcome solve(const SearchContext& ctx, const ResourceSet& resources,
                   int bound_init, std::uint64_t node_limit,
                   exec::ThreadPool* pool) {
  SolveOutcome out;
  out.best = Schedule(*ctx.g);
  if (ctx.ops.empty()) {
    // The empty leaf: latency 0, trivially below any positive bound.
    out.improved = bound_init > 0;
    out.latency = 0;
    out.nodes = 1;
    return out;
  }

  LWM_SPAN("bnb/solve");
  Incumbent inc(bound_init);
  Budget budget(node_limit);

  // First-level branches: each start step of ops[0] admitted by the
  // initial bound.  ops[0] has no executable predecessors, so it is
  // ready at step 0.
  const std::size_t branches =
      static_cast<std::size_t>(std::max(0, bound_init - ctx.tail[0]));
  std::atomic<std::uint64_t> nodes_total{0};
  exec::parallel_for(pool, branches, [&](std::size_t b) {
    LWM_SPAN("bnb/branch");
    BranchSearcher s(ctx, resources, inc, budget);
    s.memo_max_idx = ctx.ops.size() / 2;
    s.branch = b;
    const int t = static_cast<int>(b);
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(t + ctx.tail[0])
         << Incumbent::kBranchShift) |
        b;
    if (packed < inc.key.load(std::memory_order_acquire) && !s.stopped()) {
      s.count_node();
      // No resource check at the root: usage is empty, so any step fits
      // (exactly the historical searcher's first iteration).
      (void)s.descend(0, t);
    }
    s.finish();
    nodes_total.fetch_add(s.total_nodes, std::memory_order_relaxed);
    LWM_COUNT("bnb/nodes", s.total_nodes);
    LWM_COUNT("bnb/pruned_bound", s.pruned_bound);
    LWM_COUNT("bnb/pruned_dominance", s.pruned_dominance);
    LWM_COUNT("bnb/incumbent_updates", s.incumbent_updates);
  });

  out.truncated = budget.stop.load(std::memory_order_acquire);
  out.nodes = (out.truncated && node_limit != 0)
                  ? node_limit
                  : nodes_total.load(std::memory_order_relaxed);
  const std::uint64_t final_key = inc.key.load(std::memory_order_acquire);
  if (final_key < (static_cast<std::uint64_t>(bound_init)
                   << Incumbent::kBranchShift)) {
    out.improved = true;
    out.latency = static_cast<int>(final_key >> Incumbent::kBranchShift);
    out.best = inc.best;
  }
  return out;
}

}  // namespace

BnbResult bnb_min_latency(const Graph& g, const BnbOptions& opts) {
  // Seed the incumbent with list scheduling — gives a tight initial bound.
  ListScheduleOptions lopts;
  lopts.resources = opts.resources;
  lopts.filter = opts.filter;
  const Schedule seed = list_schedule(g, lopts);
  const int seed_latency = seed.length(g);

  const SearchContext ctx = build_context(g, opts.filter);
  const SolveOutcome sol = solve(ctx, opts.resources, seed_latency + 1,
                                 opts.node_limit, opts.pool);

  BnbResult result;
  result.search_nodes = sol.nodes;
  result.optimal = !sol.truncated;
  if (sol.truncated || !sol.improved) {
    // Never improved on the seed (search ran dry: the seed is optimal),
    // or the search was cut off (deterministic fallback; see bnb.h).
    result.schedule = seed;
    result.latency = seed_latency;
  } else {
    result.schedule = sol.best;
    result.latency = sol.latency;
  }
  return result;
}

}  // namespace lwm::sched
