#include "sched/force_directed.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cdfg/graph_soa.h"
#include "cdfg/timing_cache.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "sched/fds_kernels.h"

namespace lwm::sched {

using cdfg::Graph;
using cdfg::NodeId;

// ---------------------------------------------------------------------------
// Incremental engine.
//
// Bit-identity argument (eps_dg == 0): the candidate selection below reads
// exactly three inputs — the [lo, hi] windows, the pinned set, and the
// distribution graphs — and evaluates the reference formulas in the
// reference's floating-point summation order.  The TimingCache maintains
// the same integer window fixed point the reference's from-scratch
// recompute solves (tests/sched/fds_reference.cpp); the DG is
// updated *sparsely* but stays bit-equal to a from-scratch rebuild: only
// steps inside a changed node's old∪new occupancy can differ between
// iterations (every other step sums the identical doubles from the
// identical contributors in the identical topo order), so recomputing
// exactly those steps — walking the executable nodes in the reference's
// order and adding only at candidate steps — reproduces the from-scratch
// bits.  A cached force vector is only reused when every value it read
// last time is unchanged — in which case recomputing it would reproduce
// the identical doubles.  The refill kernels (scalar and SIMD,
// sched/fds_kernels.*) replicate the reference's term order and carry
// their own bit-identity contract.  Parallelism only distributes *which*
// cache entries get refilled; each entry is a pure function of shared
// read-only state, so any thread count yields the same bits.
//
// eps_dg > 0 relaxes exactly one thing: a cached vector whose read set
// saw only DG drift (no window/pin structural change) survives while the
// accumulated |ΔDG| over that read set since its fill stays <= eps_dg.
// Per (class, step) the engine keeps a monotone cumulative |ΔDG| array;
// a prefix sum per iteration makes "total drift over a step range" an
// O(1) query, and each cache entry stamps the Σ over its full read set
// (own occupancy + every unpinned hot neighbor's) at fill time.  The
// read set is frozen while the entry is valid — any window move on it
// invalidates structurally — so current-Σ minus stamp is exactly the
// drift the entry has absorbed.
// ---------------------------------------------------------------------------

namespace {

/// Cached total force (self + neighbor terms) of one node, one entry per
/// step of its window at fill time.
struct ForceVector {
  bool valid = false;
  int lo = 0;
  double stamp = 0.0;  ///< Σ cumulative |ΔDG| over the read set at fill time
  std::vector<double> force;
};

/// Per-step mask over one distribution graph's control steps.  A bitmask,
/// not an interval: one placement can move several disjoint windows (the
/// pinned node plus its propagation cone), and the interval hull between
/// them would cover every step in the untouched gap.  Doubles as the
/// dirty mask (steps whose DG value changed last iteration) and the
/// candidate mask (steps the sparse rebuild must recompute).
struct StepBits {
  std::vector<std::uint64_t> w;
  int lob = INT_MAX, hib = -1;  ///< bounds of the set bits (fast reject)
  void reset(std::size_t words) {
    w.assign(words, 0);
    lob = INT_MAX;
    hib = -1;
  }
  void clear() {
    std::fill(w.begin(), w.end(), 0);
    lob = INT_MAX;
    hib = -1;
  }
  void mark(std::size_t s) {
    w[s >> 6] |= std::uint64_t{1} << (s & 63);
    if (static_cast<int>(s) < lob) lob = static_cast<int>(s);
    if (static_cast<int>(s) > hib) hib = static_cast<int>(s);
  }
  void mark_range(int lo, int hi) {
    if (hi < lo) return;
    if (lo < lob) lob = lo;
    if (hi > hib) hib = hi;
    const std::size_t wl = static_cast<std::size_t>(lo) >> 6;
    const std::size_t wh = static_cast<std::size_t>(hi) >> 6;
    const std::uint64_t mask_l = ~std::uint64_t{0} << (lo & 63);
    const std::uint64_t mask_h =
        (hi & 63) == 63 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << ((hi & 63) + 1)) - 1;
    if (wl == wh) {
      w[wl] |= mask_l & mask_h;
      return;
    }
    w[wl] |= mask_l;
    for (std::size_t k = wl + 1; k < wh; ++k) w[k] = ~std::uint64_t{0};
    w[wh] |= mask_h;
  }
  [[nodiscard]] bool test(std::size_t s) const noexcept {
    return (w[s >> 6] >> (s & 63)) & 1;
  }
  [[nodiscard]] bool intersects(int lo, int hi) const noexcept {
    if (hi < lo || hi < lob || lo > hib) return false;
    const std::size_t wl = static_cast<std::size_t>(lo) >> 6;
    const std::size_t wh = static_cast<std::size_t>(hi) >> 6;
    const std::uint64_t mask_l = ~std::uint64_t{0} << (lo & 63);
    const std::uint64_t mask_h =
        (hi & 63) == 63 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << ((hi & 63) + 1)) - 1;
    if (wl == wh) return (w[wl] & mask_l & mask_h) != 0;
    if ((w[wl] & mask_l) != 0) return true;
    for (std::size_t k = wl + 1; k < wh; ++k) {
      if (w[k] != 0) return true;
    }
    return (w[wh] & mask_h) != 0;
  }
  /// Calls fn(step) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t k = 0; k < w.size(); ++k) {
      std::uint64_t m = w[k];
      while (m != 0) {
        const int b = __builtin_ctzll(m);
        fn(k * 64 + static_cast<std::size_t>(b));
        m &= m - 1;
      }
    }
  }
};

/// Below this stale-set size the refill fan-out runs inline: the
/// near-empty steps the fds/stale_set histogram shows (hundreds of
/// singleton / two-node iterations per run) would otherwise pay pool
/// dispatch for microseconds of work.
constexpr std::size_t kSerialRefillCutoff = 24;

}  // namespace

Schedule force_directed_schedule(const Graph& g, const FdsOptions& opts) {
  const int cp = cdfg::critical_path_length(g, opts.filter);
  const int latency = opts.latency < 0 ? cp : opts.latency;
  if (latency < cp) {
    throw std::invalid_argument("force_directed_schedule: latency " +
                                std::to_string(opts.latency) +
                                " below critical path " + std::to_string(cp));
  }

  cdfg::TimingCache cache(g, latency, opts.filter);
  const std::vector<NodeId>& order = cache.topo();
  const std::size_t cap = g.node_capacity();

  // Flat SoA snapshot of the filtered graph: every per-node attribute and
  // adjacency walk below reads contiguous arrays instead of chasing
  // Graph's vector-of-vectors.
  const cdfg::GraphSoA soa(g, opts.filter);
  const auto attrs_of = [&](NodeId n) {
    return soa.dense_of(n);  // topo() only yields live nodes
  };

  std::vector<NodeId> unscheduled;
  std::vector<char> is_exec(cap, 0);
  for (NodeId n : order) {
    if (soa.executable(attrs_of(n))) {
      unscheduled.push_back(n);
      is_exec[n.value] = 1;
    }
  }

  // Every executable node in topo order — the reference's DG build order,
  // which includes already-pinned nodes (their windows are one step wide).
  // Packed {value, cls, delay} so the per-iteration scan streams one
  // cache line per 5 nodes.
  struct ExecNode {
    std::uint32_t value;
    std::uint32_t cls;
    std::int32_t delay;
  };
  std::vector<ExecNode> exec_order;
  exec_order.reserve(unscheduled.size());
  for (NodeId n : unscheduled) {
    const std::uint32_t d = attrs_of(n);
    exec_order.push_back(
        {n.value, static_cast<std::uint32_t>(soa.unit_class(d)),
         soa.delay(d)});
  }

  const auto steps = static_cast<std::size_t>(latency);
  constexpr std::size_t ncls = cdfg::kNumUnitClasses;
  // Distribution graphs, one row per unit class, flat [ncls x steps].
  std::vector<double> dg(ncls * steps, 0.0);
  std::vector<double> snap(ncls * steps, 0.0);  // pre-rebuild snapshot
  const auto row = [&](std::size_t c) { return dg.data() + c * steps; };
  std::vector<StepBits> dirty(ncls), cand(ncls);
  for (auto& b : dirty) b.reset((steps + 63) / 64);
  for (auto& b : cand) b.reset((steps + 63) / 64);

  // eps_dg > 0 bookkeeping: monotone cumulative |ΔDG| per (class, step)
  // plus a per-iteration prefix sum for O(1) range drift queries.  The
  // dimensionless eps_dg is scaled by the design's average DG density
  // (total occupancy mass / latency) so one threshold means the same
  // relative drift on a 20-op kernel and a 1755-op MediaBench app.
  const bool approx = opts.eps_dg > 0.0;
  double eps_abs = 0.0;
  if (approx) {
    double mass = 0.0;
    for (const ExecNode& en : exec_order) mass += en.delay;
    eps_abs = opts.eps_dg * mass / static_cast<double>(latency);
  }
  std::vector<double> cum, cumpref;
  if (approx) {
    cum.assign(ncls * steps, 0.0);
    cumpref.assign(ncls * (steps + 1), 0.0);
  }
  const auto range_cum = [&](std::size_t c, int a, int b) {
    const double* pref = cumpref.data() + c * (steps + 1);
    return pref[b + 1] - pref[a];
  };

  std::vector<ForceVector> fc(cap);
  // Nodes whose window/pinned state moved in the previous placement.
  std::vector<char> window_moved(cap, 0);
  // Window each executable node contributed to the DG last iteration —
  // the "old" half of the sparse-rebuild candidate ranges.
  std::vector<int> plo(cap, 0), phi(cap, 0);
  // Executable nodes the last pin changed (drives cand + window_moved).
  std::vector<std::uint32_t> changed_exec;

  // Per-node flattened neighbor lists (accepted edge kind, executable
  // endpoint) in the reference's term order: fanin edges first, then
  // fanout edges, duplicates preserved.  Hoisting the edge walk, the
  // filter checks, and the class/delay lookups out of the per-step loops
  // is what makes a refill a pure stream of dg multiply-adds.
  struct Nb {
    std::uint32_t node;
    std::uint32_t cls;
    std::int32_t delay;
    std::uint8_t pred;  // fanin edge: clip the tail; fanout: clip the head
  };
  struct NodeInfo {
    std::uint32_t cls = 0;
    std::int32_t delay = 0;
    std::uint32_t nb_begin = 0, nb_end = 0;
  };
  std::vector<NodeInfo> info(cap);
  std::vector<Nb> nbs;
  for (NodeId n : unscheduled) {
    const std::uint32_t dn = attrs_of(n);
    NodeInfo& ni = info[n.value];
    ni.cls = static_cast<std::uint32_t>(soa.unit_class(dn));
    ni.delay = soa.delay(dn);
    ni.nb_begin = static_cast<std::uint32_t>(nbs.size());
    for (const std::uint32_t m : soa.fanin(dn)) {
      if (!soa.executable(m)) continue;
      nbs.push_back({soa.node_of(m).value,
                     static_cast<std::uint32_t>(soa.unit_class(m)),
                     soa.delay(m), 1});
    }
    for (const std::uint32_t m : soa.fanout(dn)) {
      if (!soa.executable(m)) continue;
      nbs.push_back({soa.node_of(m).value,
                     static_cast<std::uint32_t>(soa.unit_class(m)),
                     soa.delay(m), 0});
    }
    ni.nb_end = static_cast<std::uint32_t>(nbs.size());
  }

  const int* wlo = cache.lo_data();
  const int* whi = cache.hi_data();
  // Resolved once: AVX2 when built in, allowed, and the CPU has it;
  // the bit-identical scalar kernel otherwise.
  const fds::RefillFn kernel = fds::select_refill_fn(opts.allow_simd);
  // Reciprocal table: 1.0 / k is a pure function of k, so replacing the
  // per-candidate divisions with lookups yields the identical doubles
  // (see fds_kernels.h) while removing millions of vdivpd per run.
  std::vector<double> inv_len(steps + 2, 0.0);
  for (std::size_t k = 1; k < inv_len.size(); ++k) {
    inv_len[k] = 1.0 / static_cast<double>(k);
  }

  // Fills fc[n] with the reference force of every step in n's window by
  // handing the hoisted neighbor state to the refill kernel, which
  // replicates the reference's summation order term by term (see
  // sched/fds_kernels.h for the contract).
  const auto refill = [&](NodeId n, std::vector<fds::HotNb>& hot) {
    const NodeInfo& ni = info[n.value];
    const int lo = wlo[n.value];
    const int hi = whi[n.value];
    ForceVector& out = fc[n.value];
    out.valid = true;
    out.lo = lo;
    out.force.resize(static_cast<std::size_t>(hi - lo + 1));

    hot.clear();
    double stamp =
        approx ? range_cum(ni.cls, lo, hi + ni.delay - 1) : 0.0;
    for (std::uint32_t i = ni.nb_begin; i < ni.nb_end; ++i) {
      const Nb& nb = nbs[i];
      if (cache.is_pinned(NodeId{nb.node})) continue;  // reference skips
      const int mlo = wlo[nb.node];
      const int mhi = whi[nb.node];
      hot.push_back({row(nb.cls), mlo, mhi, nb.delay,
                     inv_len[static_cast<std::size_t>(mhi - mlo + 1)],
                     nb.pred != 0});
      if (approx) stamp += range_cum(nb.cls, mlo, mhi + nb.delay - 1);
    }
    out.stamp = stamp;
    kernel(row(ni.cls), lo, hi, ni.delay, latency, inv_len.data(), hot.data(),
           hot.size(), out.force.data());
  };

  Schedule sched(g);
  std::vector<NodeId> stale;
  std::uint64_t total_refills = 0, total_hits = 0, total_suppressed = 0;
  std::uint64_t iterations = 0;
  bool first = true;
  LWM_SPAN("fds/schedule");
  while (!unscheduled.empty()) {
    LWM_SPAN("fds/step");
    ++iterations;

    // --- Sparse DG update -------------------------------------------------
    // Only steps inside a changed node's old∪new occupancy can differ
    // from the previous iteration; everything else already holds the
    // from-scratch value (same contributors, same order, same doubles).
    // Mark those candidate steps, snapshot + zero them, then re-walk the
    // executable nodes in the reference's order adding only at candidate
    // steps — bit-equal to a full rebuild, at a fraction of the work.
    if (first) {
      for (auto& b : cand) b.mark_range(0, latency - 1);
    } else {
      for (auto& b : cand) b.clear();
      for (const std::uint32_t v : changed_exec) {
        const NodeInfo& ni = info[v];
        cand[ni.cls].mark_range(plo[v], phi[v] + ni.delay - 1);
        cand[ni.cls].mark_range(wlo[v], whi[v] + ni.delay - 1);
      }
    }
    for (std::size_t c = 0; c < ncls; ++c) {
      double* r = row(c);
      double* sp = snap.data() + c * steps;
      cand[c].for_each([&](std::size_t s) {
        sp[s] = r[s];
        r[s] = 0.0;
      });
    }
    for (const ExecNode& en : exec_order) {
      const StepBits& cm = cand[en.cls];
      const int lo = wlo[en.value];
      const int hi = whi[en.value];
      if (!cm.intersects(lo, hi + en.delay - 1)) continue;
      const double p = 1.0 / (hi - lo + 1);
      double* r = row(en.cls);
      for (int t = lo; t <= hi; ++t) {
        for (int d = 0; d < en.delay; ++d) {
          const auto s = static_cast<std::size_t>(t + d);
          if (cm.test(s)) r[s] += p;
        }
      }
    }
    if (first) {
      for (const ExecNode& en : exec_order) {
        plo[en.value] = wlo[en.value];
        phi[en.value] = whi[en.value];
      }
    } else {
      for (const std::uint32_t v : changed_exec) {
        plo[v] = wlo[v];
        phi[v] = whi[v];
      }
    }

    // Diff the recomputed steps against the snapshot: dirty bits for the
    // exact invalidation test, |Δ| accumulation for the eps_dg drift
    // stamps, and the per-placement total for the fds/dg_delta histogram.
    for (auto& b : dirty) b.clear();
    double total_delta = 0.0;
    for (std::size_t c = 0; c < ncls; ++c) {
      const double* r = row(c);
      const double* sp = snap.data() + c * steps;
      double* cc = approx ? cum.data() + c * steps : nullptr;
      cand[c].for_each([&](std::size_t s) {
        if (r[s] != sp[s]) {
          dirty[c].mark(s);
          const double d = std::fabs(r[s] - sp[s]);
          total_delta += d;
          if (cc != nullptr) cc[s] += d;
        }
      });
    }
    LWM_HIST("fds/dg_delta",
             static_cast<std::uint64_t>(std::llround(total_delta * 1e6)));

    if (approx) {
      for (std::size_t c = 0; c < ncls; ++c) {
        const double* cc = cum.data() + c * steps;
        double* pref = cumpref.data() + c * (steps + 1);
        double acc = 0.0;
        pref[0] = 0.0;
        for (std::size_t s = 0; s < steps; ++s) {
          acc += cc[s];
          pref[s + 1] = acc;
        }
      }
    }

    // Invalidate.  Structural changes (the node's own window, a
    // neighbor's window or pinned state) always refill — the read set
    // itself moved.  Pure DG drift refills immediately at eps_dg == 0;
    // at eps_dg > 0 it refills only once the drift Σ over the read set
    // since the fill exceeds the threshold, and each survival is counted
    // as a suppressed refill.  The newly-pinned node itself is in
    // window_moved even when its window was already a single step, which
    // is what drops its contribution from its neighbors' force sums.
    stale.clear();
    std::uint64_t suppressed_now = 0;
    for (NodeId n : unscheduled) {
      const std::size_t v = n.value;
      ForceVector& entry = fc[v];
      if (entry.valid) {
        const NodeInfo& ni = info[v];
        bool invalid = window_moved[v] != 0;
        bool drifted = false;
        if (!invalid) {
          drifted = dirty[ni.cls].intersects(wlo[v], whi[v] + ni.delay - 1);
          if (!approx && drifted) {
            invalid = true;
          } else {
            for (std::uint32_t i = ni.nb_begin; i < ni.nb_end; ++i) {
              const Nb& nb = nbs[i];
              if (window_moved[nb.node]) {
                invalid = true;
                break;
              }
              if (cache.is_pinned(NodeId{nb.node})) continue;
              if (!drifted &&
                  dirty[nb.cls].intersects(wlo[nb.node],
                                           whi[nb.node] + nb.delay - 1)) {
                drifted = true;
                if (!approx) {
                  invalid = true;
                  break;
                }
              }
            }
          }
        }
        if (!invalid && drifted) {
          // approx mode: structural reads are clean, some DG value the
          // entry reads moved — refill only past the drift threshold.
          double cur = range_cum(ni.cls, wlo[v], whi[v] + ni.delay - 1);
          for (std::uint32_t i = ni.nb_begin; i < ni.nb_end; ++i) {
            const Nb& nb = nbs[i];
            if (cache.is_pinned(NodeId{nb.node})) continue;
            cur += range_cum(nb.cls, wlo[nb.node],
                             whi[nb.node] + nb.delay - 1);
          }
          if (cur - entry.stamp > eps_abs) {
            invalid = true;
          } else {
            ++suppressed_now;
          }
        }
        if (!invalid) continue;
        entry.valid = false;
      }
      stale.push_back(n);
    }
    LWM_COUNT("fds/cache_hits", unscheduled.size() - stale.size());
    LWM_COUNT("fds/cache_refills", stale.size());
    LWM_COUNT("fds/refills_suppressed", suppressed_now);
    LWM_HIST("fds/stale_set", stale.size());
    total_hits += unscheduled.size() - stale.size();
    total_refills += stale.size();
    total_suppressed += suppressed_now;

    // Refill the stale entries — each is a pure function of (dg, windows,
    // pinned), all read-only here, so the fan-out is embarrassingly
    // parallel and thread-count-invariant.  One chunk per lane, and never
    // more lanes than live work: the stale-set histogram is dominated by
    // singleton and two-node steps late in a run, which would otherwise
    // pay a full pool dispatch each.
    std::size_t lanes =
        opts.pool == nullptr
            ? 1
            : static_cast<std::size_t>(opts.pool->concurrency());
    if (lanes > stale.size()) lanes = stale.size();
    if (stale.size() < kSerialRefillCutoff) lanes = 1;
    exec::parallel_for_ranges(opts.pool, stale.size(), lanes,
                              [&](std::size_t b, std::size_t e) {
                                std::vector<fds::HotNb> scratch;
                                for (std::size_t i = b; i < e; ++i) {
                                  refill(stale[i], scratch);
                                }
                              });

    // Candidate selection: the reference's scan order and strict-<
    // tie-break over the cached (bit-identical) force values.
    NodeId best_node;
    int best_step = -1;
    double best_force = 0.0;
    bool have_best = false;
    for (NodeId n : unscheduled) {
      const ForceVector& entry = fc[n.value];
      const int lo = wlo[n.value];
      const int hi = whi[n.value];
      for (int t = lo; t <= hi; ++t) {
        const double force = entry.force[static_cast<std::size_t>(t - lo)];
        if (!have_best || force < best_force) {
          have_best = true;
          best_force = force;
          best_node = n;
          best_step = t;
        }
      }
    }

    cache.pin(best_node, best_step);
    sched.set_start(best_node, best_step);
    unscheduled.erase(
        std::remove(unscheduled.begin(), unscheduled.end(), best_node),
        unscheduled.end());
    for (const std::uint32_t v : changed_exec) window_moved[v] = 0;
    changed_exec.clear();
    for (NodeId m : cache.last_changed()) {
      if (!is_exec[m.value]) continue;  // pseudo-ops never enter the DG
      window_moved[m.value] = 1;
      changed_exec.push_back(m.value);
    }
    first = false;
  }
  if (opts.stats != nullptr) {
    *opts.stats = {total_refills, total_hits, total_suppressed, iterations};
  }
  return sched;
}

}  // namespace lwm::sched
