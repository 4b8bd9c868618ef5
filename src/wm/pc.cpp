#include "wm/pc.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <stdexcept>

#include "cdfg/analysis.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "tmatch/exact_cover.h"
#include "wm/periodic.h"

namespace lwm::wm {

using cdfg::Graph;
using cdfg::NodeId;

namespace {

/// The caller's specification windows, or a fresh pass into `own`.
const cdfg::TimingInfo& spec_windows(const Graph& g,
                                     const cdfg::TimingInfo* spec_timing,
                                     std::optional<cdfg::TimingInfo>& own) {
  if (spec_timing != nullptr) return *spec_timing;
  own = cdfg::compute_timing(g, -1, cdfg::EdgeFilter::specification());
  return *own;
}

}  // namespace

PcEstimate sched_pc_exact(const Graph& g, const SchedWatermark& wm,
                          const sched::EnumerationOptions& opts,
                          const cdfg::TimingInfo* spec_timing) {
  LWM_SPAN("wm/pc_exact");
  LWM_COUNT("wm/psi_evals", 2);  // denominator + numerator enumeration
  // Enumerate over the executable members of the carved subtree.
  std::vector<NodeId> subset;
  for (const NodeId n : wm.subtree) {
    if (cdfg::is_executable(g.node(n).kind)) subset.push_back(n);
  }
  std::vector<sched::ExtraPrecedence> extra;
  for (const TemporalConstraint& c : wm.constraints) {
    extra.push_back(sched::ExtraPrecedence{c.src, c.dst});
  }
  sched::EnumerationOptions eopts = opts;
  eopts.filter = cdfg::EdgeFilter::specification();
  // count_schedules' default bound is the specification critical path —
  // exactly what resident windows already carry.
  if (spec_timing != nullptr && eopts.latency < 0) {
    eopts.latency = spec_timing->critical_path;
  }

  const sched::EnumerationResult denom =
      sched::count_schedules(g, subset, {}, eopts);
  const sched::EnumerationResult numer =
      sched::count_schedules(g, subset, extra, eopts);

  if (denom.saturated || numer.saturated || denom.count == 0) {
    // Too large to enumerate — approximate instead.
    const SchedWatermark marks[] = {wm};
    return sched_pc_window_model(g, marks, spec_timing);
  }
  PcEstimate est;
  est.exact = true;
  if (numer.count == 0) {
    est.degenerate = true;
    // Zero coincidence within the bound; report a floor instead of -inf.
    est.log10_pc = -std::log10(static_cast<double>(denom.count)) - 1.0;
  } else {
    est.log10_pc = std::log10(static_cast<double>(numer.count)) -
                   std::log10(static_cast<double>(denom.count));
  }
  return est;
}

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
  // Integer arithmetic throughout: bit-identical to the per-step loop.
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

PcEstimate sched_pc_poisson(const Graph& g,
                            std::span<const SchedWatermark> marks,
                            const cdfg::TimingInfo* spec_timing) {
  LWM_SPAN("wm/pc_poisson");
  std::optional<cdfg::TimingInfo> own;
  const cdfg::TimingInfo& timing = spec_windows(g, spec_timing, own);
  PcEstimate est;
  est.exact = false;
  double lambda = 0.0;
  for (const SchedWatermark& wm : marks) {
    for (const TemporalConstraint& c : wm.constraints) {
      const double p = edge_order_probability(timing, g, c.src, c.dst);
      if (p <= 0.0) {
        // Unsatisfiable by a free schedule: a full expected violation.
        est.degenerate = true;
        lambda += 1.0;
        continue;
      }
      lambda += 1.0 - p;
    }
  }
  est.log10_pc = -lambda / std::log(10.0);
  return est;
}

PcEstimate sched_pc_auto(const Graph& g, std::span<const SchedWatermark> marks,
                         const SchedPcAutoOptions& opts,
                         const cdfg::TimingInfo* spec_timing) {
  PcEstimate total;
  total.exact = !marks.empty();
  if (marks.empty()) return total;
  const bool poisson = g.node_count() > opts.poisson_node_threshold;
  const auto add = [&total](const PcEstimate& e) {
    total.log10_pc += e.log10_pc;
    total.exact = total.exact && e.exact;
    total.degenerate = total.degenerate || e.degenerate;
  };
  if (opts.ii > 0) {
    // Periodic schedule space: count modulo-II alternatives instead of
    // flat ones (wm/periodic.h), every mark against the same windows.
    const PeriodicTiming windows = compute_periodic_timing(
        g, opts.ii, -1, periodic_counting_filter());
    for (const SchedWatermark& wm : marks) {
      if (poisson) {
        LWM_COUNT("wm/pc_auto_periodic_poisson", 1);
        const SchedWatermark one[] = {wm};
        add(sched_pc_periodic_poisson(g, one, opts.ii, &windows));
      } else {
        LWM_COUNT("wm/pc_auto_periodic_exact", 1);
        add(sched_pc_periodic(g, wm, opts.ii, opts.enumeration, &windows));
      }
    }
    return total;
  }
  std::optional<cdfg::TimingInfo> own;
  const cdfg::TimingInfo& windows = spec_windows(g, spec_timing, own);
  for (const SchedWatermark& wm : marks) {
    if (poisson) {
      LWM_COUNT("wm/pc_auto_poisson", 1);
      const SchedWatermark one[] = {wm};
      add(sched_pc_poisson(g, one, &windows));
    } else {
      LWM_COUNT("wm/pc_auto_exact", 1);
      add(sched_pc_exact(g, wm, opts.enumeration, &windows));
    }
  }
  return total;
}

PcEstimate sched_pc_auto(const Graph& g, const SchedWatermark& wm,
                         const SchedPcAutoOptions& opts) {
  const SchedWatermark one[] = {wm};
  return sched_pc_auto(g, one, opts);
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
