#include "wm/pc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "cdfg/analysis.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "sched/enumerate.h"
#include "tmatch/exact_cover.h"

namespace lwm::wm {

using cdfg::EdgeFilter;
using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

// The policy of sched_pc_auto.  Above kPoissonNodeThreshold graph nodes
// the exact path is skipped outright; 2048 keeps every design of the
// original experiment suite (<= ~1.8k ops) on it while mega-designs go
// straight to the closed form.  sched::kExactLimit bounds each exact
// count, and with it the work of one mark: counting stops there and the
// mark takes the Poisson model.  At 1e6 a mark costs at most about 0.1 s
// on a 1,957-node mega design where one unbounded count ran past a
// minute.
constexpr std::size_t kPoissonNodeThreshold = 2048;
using sched::kExactLimit;

/// The caller's specification windows, or a fresh pass into `own`.
const cdfg::TimingInfo& spec_windows(const Graph& g,
                                     const cdfg::TimingInfo* spec_timing,
                                     std::optional<cdfg::TimingInfo>& own) {
  if (spec_timing != nullptr) return *spec_timing;
  own = cdfg::compute_timing(g, -1, EdgeFilter::specification());
  return *own;
}

/// Window-model order probability of one temporal edge: independent
/// uniform starts in the two [asap, alap] windows, src finishing at or
/// before dst starts.  Closed form, O(1): the favorable-draw count is a
/// clipped arithmetic series over src's window, evaluated exactly in
/// integers — bit-identical to the per-step summation at any window size.
double edge_order_probability(const cdfg::TimingInfo& timing, const Graph& g,
                              NodeId src, NodeId dst) {
  const int la = timing.asap[src.value];
  const int ha = timing.alap[src.value];
  const int lb = timing.asap[dst.value];
  const int hb = timing.alap[dst.value];
  const int da = g.node(src).delay;
  const long long total =
      static_cast<long long>(ha - la + 1) * (hb - lb + 1);
  // Favorable (ta, tb) pairs: tb >= ta + da.  As a function of ta this
  // is a clipped ramp — the full dst window while ta + da <= lb, then an
  // arithmetic ramp down to zero — so the sum collapses to two terms.
  long long favorable = 0;
  // Saturated region: ta in [la, min(ha, lb - da)] sees the whole window.
  const long long flat_hi = std::min<long long>(ha, static_cast<long long>(lb) - da);
  if (flat_hi >= la) {
    favorable += (flat_hi - la + 1) * (hb - lb + 1);
  }
  // Ramp region: ta in [max(la, lb - da + 1), min(ha, hb - da)]
  // contributes hb - (ta + da) + 1 each, an arithmetic series.
  const long long ramp_lo = std::max<long long>(la, static_cast<long long>(lb) - da + 1);
  const long long ramp_hi = std::min<long long>(ha, static_cast<long long>(hb) - da);
  if (ramp_hi >= ramp_lo) {
    const long long n = ramp_hi - ramp_lo + 1;
    const long long first = static_cast<long long>(hb) - da + 1 - ramp_lo;
    const long long last = static_cast<long long>(hb) - da + 1 - ramp_hi;
    favorable += n * (first + last) / 2;
  }
  return static_cast<double>(favorable) / static_cast<double>(total);
}

/// Poisson model of one mark over `windows` (flat or periodic): lambda =
/// sum (1 - p_i) over its temporal edges, P_c = e^-lambda.
PcEstimate poisson_model(const Graph& g, const SchedWatermark& wm,
                         const cdfg::TimingInfo& windows) {
  LWM_SPAN("wm/pc_poisson");
  LWM_COUNT("wm/pc_auto_poisson", 1);
  PcEstimate est;
  double lambda = 0.0;
  for (const TemporalConstraint& c : wm.constraints) {
    const double p = edge_order_probability(windows, g, c.src, c.dst);
    if (p <= 0.0) {
      // Unsatisfiable by a free schedule: a full expected violation.
      est.degenerate = true;
      lambda += 1.0;
      continue;
    }
    lambda += 1.0 - p;
  }
  est.log10_pc = -lambda / std::log(10.0);
  return est;
}

/// The exact estimate psi_w / psi_n; a zero numerator is zero
/// coincidence within the bound, reported as a floor one decade below
/// 1/psi_n instead of -inf.
PcEstimate exact_ratio(std::uint64_t psi_w, std::uint64_t psi_n) {
  PcEstimate est;
  est.exact = true;
  if (psi_w == 0) {
    est.degenerate = true;
    est.log10_pc = -std::log10(static_cast<double>(psi_n)) - 1.0;
  } else {
    est.log10_pc = std::log10(static_cast<double>(psi_w)) -
                   std::log10(static_cast<double>(psi_n));
  }
  return est;
}

/// The node set both exact counters enumerate: the executable members of
/// the mark's carved subtree.
std::vector<NodeId> executable_subtree(const Graph& g,
                                       const SchedWatermark& wm) {
  std::vector<NodeId> subset;
  for (const NodeId n : wm.subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  return subset;
}

/// The mark's temporal constraints between two distinct members of
/// `subset`, each taken in the flat sense start(dst) >= start(src) +
/// delay(src).  Constraints with an endpoint outside the subset are
/// skipped: they can only shrink psi_w, so skipping over-reports P_c, the
/// safe direction.
std::vector<sched::ExtraPrecedence> member_precedences(
    const SchedWatermark& wm, std::span<const NodeId> subset) {
  auto member = [&](NodeId n) {
    return std::find(subset.begin(), subset.end(), n) != subset.end();
  };
  std::vector<sched::ExtraPrecedence> extra;
  for (const TemporalConstraint& c : wm.constraints) {
    if (c.src != c.dst && member(c.src) && member(c.dst)) {
      extra.push_back(sched::ExtraPrecedence{c.src, c.dst});
    }
  }
  return extra;
}

/// Exact flat P_c of one mark, or nullopt when psi_n reaches kExactLimit
/// or is empty.  The counts read the specification windows `spec`.
/// psi_w counts a subset of psi_n's space, so it is enumerated only once
/// psi_n is known to fit.  A subtree without executable members has one
/// (empty) schedule either way: an exact ratio of 1, counted by nothing.
std::optional<PcEstimate> flat_exact(const Graph& g, const SchedWatermark& wm,
                                     const cdfg::TimingInfo& spec) {
  const std::vector<NodeId> subset = executable_subtree(g, wm);
  if (subset.empty()) return exact_ratio(1, 1);
  LWM_COUNT("wm/psi_evals", 1);
  const sched::EnumerationResult denom =
      sched::count_schedules(g, spec, subset, {}, kExactLimit);
  if (denom.saturated || denom.count == 0) return std::nullopt;
  LWM_COUNT("wm/psi_evals", 1);
  const sched::EnumerationResult numer = sched::count_schedules(
      g, spec, subset, member_precedences(wm, subset), kExactLimit);
  if (numer.saturated) return std::nullopt;
  return exact_ratio(numer.count, denom.count);
}

// ---- Periodic schedule space ----------------------------------------------
//
// A marked graph scheduled at initiation interval II admits many periodic
// schedules, as a DAG admits many flat ones.  An embedded temporal edge
// src -> dst constrains the flat (iteration-0) start offsets, start(dst)
// >= start(src) + delay(src), which every iteration repeats at + i * II;
// sched::modulo_schedule honors temporal edges in precisely this sense,
// so the flat-start detector recovers periodic marks unchanged.  What
// changes is the counting: windows and separations are token-weighted,
// w(e) = delay(src) - II * tokens, possibly negative — a loop-carried
// edge gives slack instead of taking it.

/// The unwatermarked marked graph: specification edges plus loop-carried
/// token edges, temporal (watermark) edges excluded as specification()
/// excludes them in the flat counters.
constexpr EdgeFilter kPeriodicCounting{true, true, false, true};

// The periodic constraint start(dst) + II * tokens >= start(src) +
// delay(src) rearranges to start(dst) >= start(src) + w.
long long edge_weight(const Graph& g, const cdfg::Edge& ed, int ii) {
  return static_cast<long long>(g.node(ed.src).delay) -
         static_cast<long long>(ii) * ed.tokens;
}

/// Periodic start windows at interval `ii` as a TimingInfo: asap / alap
/// are the earliest / latest flat starts within the minimum feasible flat
/// makespan, which is both critical_path and latency.  Throws
/// std::runtime_error when some token-weighted cycle has positive weight
/// (`ii` below the recurrence bound).
cdfg::TimingInfo periodic_windows(const Graph& g, int ii) {
  LWM_COUNT("cdfg/timing_passes", 1);
  const std::size_t cap = g.node_capacity();

  // Earliest flat starts: fixed point of the token-weighted relaxation,
  // floored at 0 (iteration-0 offsets are nonnegative).  A pass count
  // beyond node_count still producing changes certifies a positive-
  // weight cycle.
  std::vector<long long> est(cap, 0);
  const std::size_t passes = g.node_count() + 1;
  bool changed = true;
  for (std::size_t pass = 0; pass < passes && changed; ++pass) {
    changed = false;
    for (EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kPeriodicCounting.accepts(ed)) continue;
      const long long cand = est[ed.src.value] + edge_weight(g, ed, ii);
      if (cand > est[ed.dst.value]) {
        est[ed.dst.value] = cand;
        changed = true;
      }
    }
  }
  if (changed) {
    throw std::runtime_error(
        "sched_pc_auto: no periodic schedule exists for '" + g.name() +
        "' at II=" + std::to_string(ii) +
        " (a token-weighted cycle has positive weight; raise II to the "
        "recurrence bound)");
  }

  long long span = 0;
  for (NodeId n : g.nodes()) {
    if (!cdfg::is_executable(g.node(n).kind)) continue;
    span = std::max(span, est[n.value] + g.node(n).delay);
  }

  // Latest flat starts within the span: backward fixed point, feasible
  // because the earliest-start schedule itself fits.
  std::vector<long long> lst(cap, 0);
  for (NodeId n : g.nodes()) lst[n.value] = span - g.node(n).delay;
  changed = true;
  for (std::size_t pass = 0; pass < passes && changed; ++pass) {
    changed = false;
    for (EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kPeriodicCounting.accepts(ed)) continue;
      const long long cand = lst[ed.dst.value] - edge_weight(g, ed, ii);
      if (cand < lst[ed.src.value]) {
        lst[ed.src.value] = cand;
        changed = true;
      }
    }
  }

  cdfg::TimingInfo t;
  t.critical_path = t.latency = static_cast<int>(span);
  t.asap.assign(cap, -1);
  t.alap.assign(cap, -1);
  for (NodeId n : g.nodes()) {
    t.asap[n.value] = static_cast<int>(est[n.value]);
    t.alap[n.value] = static_cast<int>(lst[n.value]);
  }
  return t;
}

// Longest token-weighted distance from `src` to every node, or
// sched::kNoSeparation when unconstrained.  Bellman-Ford over live
// edges; converges within node_count passes because periodic_windows
// has already certified that no positive-weight cycle exists at this II.
std::vector<long long> longest_from(const Graph& g, NodeId src, int ii) {
  std::vector<long long> dist(g.node_capacity(), sched::kNoSeparation);
  dist[src.value] = 0;
  const std::size_t passes = g.node_count() + 1;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (EdgeId e : g.edges()) {
      const cdfg::Edge& ed = g.edge(e);
      if (!kPeriodicCounting.accepts(ed)) continue;
      if (dist[ed.src.value] == sched::kNoSeparation) continue;
      const long long cand = dist[ed.src.value] + edge_weight(g, ed, ii);
      if (cand > dist[ed.dst.value]) {
        dist[ed.dst.value] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

/// Exact periodic P_c of one mark at `ii`, or nullopt when psi_n reaches
/// kExactLimit or is empty.  psi_n counts flat starts of the subtree's
/// executable members inside their periodic `windows` with every pairwise
/// token-weighted separation honored; psi_w additionally satisfies every
/// temporal constraint of the mark in the flat sense.
std::optional<PcEstimate> periodic_exact(const Graph& g,
                                         const SchedWatermark& wm, int ii,
                                         const cdfg::TimingInfo& windows) {
  LWM_SPAN("wm/periodic_psi");
  const std::vector<NodeId> subset = executable_subtree(g, wm);
  if (subset.empty()) return exact_ratio(1, 1);

  // Windows and the pairwise token-weighted separation matrix over the
  // subset: sep[i*m + j] is the minimum required start(j) - start(i).
  // Paths through nodes outside the subset are captured here.
  const std::size_t m = subset.size();
  std::vector<long long> lo(m), hi(m);
  std::vector<long long> sep(m * m, sched::kNoSeparation);
  for (std::size_t i = 0; i < m; ++i) {
    lo[i] = windows.asap[subset[i].value];
    hi[i] = windows.alap[subset[i].value];
    const std::vector<long long> dist = longest_from(g, subset[i], ii);
    for (std::size_t j = 0; j < m; ++j) {
      if (j != i) sep[i * m + j] = dist[subset[j].value];
    }
  }

  LWM_COUNT("wm/psi_evals", 1);
  const sched::EnumerationResult psi_n =
      sched::count_separated(lo, hi, sep, kExactLimit);
  if (psi_n.saturated || psi_n.count == 0) return std::nullopt;
  const auto index = [&](NodeId n) {
    return static_cast<std::size_t>(
        std::find(subset.begin(), subset.end(), n) - subset.begin());
  };
  for (const sched::ExtraPrecedence& x : member_precedences(wm, subset)) {
    long long& s = sep[index(x.before) * m + index(x.after)];
    s = std::max(s, static_cast<long long>(g.node(x.before).delay));
  }
  LWM_COUNT("wm/psi_evals", 1);
  const sched::EnumerationResult psi_w =
      sched::count_separated(lo, hi, sep, kExactLimit);
  if (psi_w.saturated) return std::nullopt;
  return exact_ratio(psi_w.count, psi_n.count);
}

}  // namespace

PcEstimate sched_pc_window_model(const Graph& g,
                                 std::span<const SchedWatermark> marks,
                                 const cdfg::TimingInfo* spec_timing) {
  LWM_SPAN("wm/pc_window");
  std::optional<cdfg::TimingInfo> own;
  const cdfg::TimingInfo& timing = spec_windows(g, spec_timing, own);
  PcEstimate est;
  est.exact = false;
  for (const SchedWatermark& wm : marks) {
    for (const TemporalConstraint& c : wm.constraints) {
      const double p = edge_order_probability(timing, g, c.src, c.dst);
      if (p <= 0.0) {
        // The constraint is unsatisfiable by a free schedule within the
        // critical path; treat as one-in-total-windows.
        est.degenerate = true;
        est.log10_pc += -6.0;  // conservative floor per impossible edge
        continue;
      }
      est.log10_pc += std::log10(p);
    }
  }
  return est;
}

PcEstimate sched_pc_auto(const Graph& g, std::span<const SchedWatermark> marks,
                         int ii, const cdfg::TimingInfo* spec_timing) {
  PcEstimate total;
  total.exact = !marks.empty();
  if (marks.empty()) return total;
  std::optional<cdfg::TimingInfo> own;
  const cdfg::TimingInfo& windows =
      ii > 0 ? own.emplace(periodic_windows(g, ii))
             : spec_windows(g, spec_timing, own);
  const bool try_exact = g.node_count() <= kPoissonNodeThreshold;
  for (const SchedWatermark& wm : marks) {
    std::optional<PcEstimate> e;
    if (try_exact) {
      LWM_SPAN("wm/pc_exact");
      LWM_COUNT("wm/pc_auto_exact", 1);
      e = ii > 0 ? periodic_exact(g, wm, ii, windows)
                 : flat_exact(g, wm, windows);
    }
    if (!e) e = poisson_model(g, wm, windows);
    total.log10_pc += e->log10_pc;
    total.exact = total.exact && e->exact;
    total.degenerate = total.degenerate || e->degenerate;
  }
  return total;
}

PcEstimate sched_pc_auto(const Graph& g, const SchedWatermark& wm, int ii) {
  return sched_pc_auto(g, std::span<const SchedWatermark>(&wm, 1), ii);
}

PcEstimate sched_pc_sampled(const Graph& g,
                            std::span<const SchedWatermark> marks, int trials,
                            std::uint64_t seed, int latency,
                            exec::ThreadPool* pool) {
  if (trials <= 0) {
    throw std::invalid_argument("sched_pc_sampled: need trials > 0");
  }
  LWM_SPAN("wm/pc_sampled");
  LWM_COUNT("wm/pc_trials", trials);
  const cdfg::TimingInfo timing =
      cdfg::compute_timing(g, latency, cdfg::EdgeFilter::specification());
  const std::vector<NodeId> order =
      cdfg::topo_order(g, cdfg::EdgeFilter::specification());

  // Per-chunk RNG streams over chunks of roughly kChunkTrials each: the
  // chunk boundaries (and the seed, mixed from each chunk's start offset)
  // are a function of `trials` alone, so serial and parallel runs agree
  // bit for bit, and any thread count gives the same estimate.
  constexpr int kChunkTrials = 512;
  const std::size_t chunks =
      (static_cast<std::size_t>(trials) + kChunkTrials - 1) / kChunkTrials;
  const int satisfied_all = exec::parallel_reduce(
      pool, static_cast<std::size_t>(trials), chunks, 0,
      [&](std::size_t begin, std::size_t end) {
        // splitmix64-style mix of (seed, chunk start) keeps streams disjoint.
        std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (begin + 1);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        std::mt19937_64 rng(z ^ (z >> 31));
        int hits = 0;
        std::vector<int> start(g.node_capacity(), 0);
        for (std::size_t t = begin; t < end; ++t) {
          // Random feasible schedule: walk in topological order; each node
          // draws uniformly from [earliest-from-preds, ALAP].
          for (const NodeId n : order) {
            int lo = timing.asap[n.value];
            for (const cdfg::EdgeId e : g.fanin(n)) {
              const cdfg::Edge& ed = g.edge(e);
              if (ed.kind == cdfg::EdgeKind::kTemporal) continue;
              lo = std::max(lo, start[ed.src.value] + g.node(ed.src).delay);
            }
            const int hi = timing.alap[n.value];
            start[n.value] =
                lo >= hi
                    ? lo
                    : lo + static_cast<int>(
                               rng() % static_cast<unsigned>(hi - lo + 1));
          }
          bool all_ok = true;
          for (const SchedWatermark& wm : marks) {
            for (const TemporalConstraint& c : wm.constraints) {
              if (start[c.src.value] + g.node(c.src).delay >
                  start[c.dst.value]) {
                all_ok = false;
                break;
              }
            }
            if (!all_ok) break;
          }
          if (all_ok) ++hits;
        }
        return hits;
      },
      [](int acc, int part) { return acc + part; });
  PcEstimate est;
  est.exact = false;
  est.degenerate = satisfied_all == 0;
  // Laplace smoothing: (hits + 1) / (trials + 2).
  est.log10_pc = std::log10(static_cast<double>(satisfied_all + 1) /
                            static_cast<double>(trials + 2));
  return est;
}

PcEstimate tm_pc(const Graph& g, const tmatch::TemplateLibrary& lib,
                 const TmWatermark& wm) {
  PcEstimate est;
  est.exact = true;
  for (const tmatch::Match& m : wm.enforced) {
    // Solutions(m): distinct matchings that cover m's nodes in the
    // unconstrained design.
    std::vector<tmatch::Match> pool =
        tmatch::enumerate_matches(g, lib, tmatch::MatchConstraints{});
    long long solutions = 0;
    for (const tmatch::Match& cand : pool) {
      bool touches = false;
      for (const NodeId n : m.nodes) {
        if (cand.covers(n)) {
          touches = true;
          break;
        }
      }
      if (touches) ++solutions;
    }
    if (solutions <= 1) {
      // Forced matching is the only option — contributes no security.
      continue;
    }
    est.log10_pc -= std::log10(static_cast<double>(solutions));
  }
  return est;
}

PcEstimate tm_pc_exact(const Graph& g, const tmatch::TemplateLibrary& lib,
                       const TmWatermark& wm, std::uint64_t limit) {
  // Q: the unconstrained optimum.
  tmatch::ExactCoverOptions xopts;
  xopts.node_limit = limit;
  const tmatch::ExactCoverResult opt = tmatch::exact_cover(g, lib, xopts);
  if (!opt.optimal) {
    return tm_pc(g, lib, wm);
  }
  const int q = opt.cover.match_count();

  const tmatch::CoverCountResult denom =
      tmatch::count_covers(g, lib, q, {}, limit);
  tmatch::CoverOptions constrained;
  constrained.enforced = wm.enforced;
  constrained.ppo = wm.ppos;
  const tmatch::CoverCountResult numer =
      tmatch::count_covers(g, lib, q, constrained, limit);

  if (denom.saturated || numer.saturated || denom.count == 0) {
    return tm_pc(g, lib, wm);
  }
  PcEstimate est;
  est.exact = true;
  if (numer.count == 0) {
    // The watermarked spec admits no quality-Q solution at all: a
    // quality-Q suspect cannot carry the watermark by coincidence.  Use
    // a floor one decade below the solution count.
    est.degenerate = true;
    est.log10_pc = -std::log10(static_cast<double>(denom.count)) - 1.0;
  } else {
    est.log10_pc = std::log10(static_cast<double>(numer.count)) -
                   std::log10(static_cast<double>(denom.count));
  }
  return est;
}

}  // namespace lwm::wm
