#include "cdfg/timing_cache.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace lwm::cdfg {

namespace {

constexpr std::uint64_t bit_mask(std::size_t v) noexcept {
  return std::uint64_t{1} << (v % 64);
}

}  // namespace

TimingCache::TimingCache(const Graph& g, int latency, EdgeFilter filter,
                         bool with_reachability)
    : g_(&g), filter_(filter), with_reach_(with_reachability) {
  LWM_SPAN("cdfg/timing_build");
  const std::size_t cap = g.node_capacity();
  topo_ = topo_order(g, filter);
  pos_.assign(cap, -1);
  for (std::size_t i = 0; i < topo_.size(); ++i) {
    pos_[topo_[i].value] = static_cast<int>(i);
  }
  lo_.assign(cap, -1);
  hi_.assign(cap, -1);
  pinned_.assign(cap, -1);
  extra_out_.assign(cap, {});
  extra_in_.assign(cap, {});
  changed_mark_.assign(cap, false);
  queued_.assign(cap, 0);

  // Freeze the filtered adjacency to CSR (value-indexed, per-node edge
  // insertion order preserved): two counting passes, one arena each way.
  delay_.assign(cap, 0);
  fanin_off_.assign(cap + 1, 0);
  fanout_off_.assign(cap + 1, 0);
  for (std::size_t v = 0; v < cap; ++v) {
    const NodeId n{static_cast<std::uint32_t>(v)};
    if (pos_[v] < 0) continue;  // dead: empty rows
    delay_[v] = g.node(n).delay;
    std::uint32_t in = 0, out = 0;
    for (EdgeId e : g.fanin(n)) {
      if (filter.accepts(g.edge(e))) ++in;
    }
    for (EdgeId e : g.fanout(n)) {
      if (filter.accepts(g.edge(e))) ++out;
    }
    fanin_off_[v + 1] = in;
    fanout_off_[v + 1] = out;
  }
  for (std::size_t v = 0; v < cap; ++v) {
    fanin_off_[v + 1] += fanin_off_[v];
    fanout_off_[v + 1] += fanout_off_[v];
  }
  fanin_node_.resize(fanin_off_[cap]);
  fanin_delay_.resize(fanin_off_[cap]);
  fanout_node_.resize(fanout_off_[cap]);
  for (std::size_t v = 0; v < cap; ++v) {
    const NodeId n{static_cast<std::uint32_t>(v)};
    if (pos_[v] < 0) continue;
    std::uint32_t in = fanin_off_[v], out = fanout_off_[v];
    for (EdgeId e : g.fanin(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      fanin_node_[in] = ed.src.value;
      fanin_delay_[in] = g.node(ed.src).delay;
      ++in;
    }
    for (EdgeId e : g.fanout(n)) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      fanout_node_[out++] = ed.dst.value;
    }
  }

  // Forward longest path (ASAP) — same recurrence as compute_timing().
  int cp = 0;
  for (NodeId n : topo_) {
    const std::size_t v = n.value;
    int start = 0;
    for (std::uint32_t i = fanin_off_[v]; i < fanin_off_[v + 1]; ++i) {
      const int cand = lo_[fanin_node_[i]] + fanin_delay_[i];
      start = std::max(start, cand);
    }
    lo_[v] = start;
    cp = std::max(cp, start + delay_[v]);
  }
  critical_path_ = cp;
  if (latency < 0) {
    latency = cp;
  } else if (latency < cp) {
    throw std::invalid_argument("TimingCache: latency " +
                                std::to_string(latency) +
                                " below critical path " + std::to_string(cp) +
                                " in '" + g.name() + "'");
  }
  latency_ = latency;

  // Backward longest path (ALAP).
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const std::size_t v = it->value;
    int latest = latency - delay_[v];
    for (std::uint32_t i = fanout_off_[v]; i < fanout_off_[v + 1]; ++i) {
      latest = std::min(latest, hi_[fanout_node_[i]] - delay_[v]);
    }
    hi_[v] = latest;
  }

  if (with_reach_) {
    words_ = (cap + 63) / 64;
    desc_.assign(cap * words_, 0);
    // Reverse topological order: every successor's row is final before it
    // is unioned in, so one pass per node suffices.
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const std::size_t v = it->value;
      std::uint64_t* mine = desc_.data() + row(v);
      for (std::uint32_t i = fanout_off_[v]; i < fanout_off_[v + 1]; ++i) {
        const std::uint32_t dst = fanout_node_[i];
        const std::uint64_t* theirs = desc_.data() + row(dst);
        for (std::size_t w = 0; w < words_; ++w) mine[w] |= theirs[w];
        mine[dst / 64] |= bit_mask(dst);
      }
    }
  }
}

int TimingCache::compute_lo(NodeId n) const {
  const std::size_t v = n.value;
  int start = 0;
  for (std::uint32_t i = fanin_off_[v]; i < fanin_off_[v + 1]; ++i) {
    start = std::max(start, lo_[fanin_node_[i]] + fanin_delay_[i]);
  }
  for (NodeId p : extra_in_[v]) {
    start = std::max(start, lo_[p.value] + delay_[p.value]);
  }
  return start;
}

int TimingCache::compute_hi(NodeId n) const {
  const std::size_t v = n.value;
  const int delay = delay_[v];
  int latest = latency_ - delay;
  for (std::uint32_t i = fanout_off_[v]; i < fanout_off_[v + 1]; ++i) {
    latest = std::min(latest, hi_[fanout_node_[i]] - delay);
  }
  for (NodeId s : extra_out_[v]) {
    latest = std::min(latest, hi_[s.value] - delay);
  }
  return latest;
}

void TimingCache::note_changed(NodeId n) {
  if (!changed_mark_[n.value]) {
    changed_mark_[n.value] = true;
    changed_.push_back(n);
  }
}

// Monotone worklist: lo values only rise, so recomputing a node from its
// current predecessors and re-queueing its successors whenever the value
// moved converges to the unique fixed point in any pop order.  The heap
// pops in topological position so, absent extra edges that run against
// the stored order, each node is recomputed at most once.  heap_/queued_
// are member scratch (empty / all-zero between calls) — one pin used to
// cost two fresh capacity-sized vectors.
void TimingCache::propagate_lo(const std::vector<NodeId>& seeds) {
  const auto push = [&](std::uint32_t v) {
    const int p = pos_[v];
    if (p >= 0 && !queued_[v]) {
      queued_[v] = 1;
      heap_.push_back(p);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<int>());
    }
  };
  for (NodeId s : seeds) push(s.value);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<int>());
    const NodeId n = topo_[static_cast<std::size_t>(heap_.back())];
    heap_.pop_back();
    const std::size_t v = n.value;
    queued_[v] = 0;
    ++update_work_;
    const int nl = compute_lo(n);
    if (pinned_[v] >= 0) {
      // A pinned window never moves; it can only become untenable when an
      // extra edge pushed a predecessor past it.
      if (nl > pinned_[v]) feasible_ = false;
      continue;
    }
    if (nl <= lo_[v]) continue;
    lo_[v] = nl;
    if (nl > hi_[v]) feasible_ = false;
    note_changed(n);
    for (std::uint32_t i = fanout_off_[v]; i < fanout_off_[v + 1]; ++i) {
      push(fanout_node_[i]);
    }
    for (NodeId s : extra_out_[v]) push(s.value);
  }
}

void TimingCache::propagate_hi(const std::vector<NodeId>& seeds) {
  // Max-heap on topo position: reverse topological pop order.
  const auto push = [&](std::uint32_t v) {
    const int p = pos_[v];
    if (p >= 0 && !queued_[v]) {
      queued_[v] = 1;
      heap_.push_back(p);
      std::push_heap(heap_.begin(), heap_.end());
    }
  };
  for (NodeId s : seeds) push(s.value);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const NodeId n = topo_[static_cast<std::size_t>(heap_.back())];
    heap_.pop_back();
    const std::size_t v = n.value;
    queued_[v] = 0;
    ++update_work_;
    const int nh = compute_hi(n);
    if (pinned_[v] >= 0) {
      if (nh < pinned_[v]) feasible_ = false;
      continue;
    }
    if (nh >= hi_[v]) continue;
    hi_[v] = nh;
    if (nh < lo_[v]) feasible_ = false;
    note_changed(n);
    for (std::uint32_t i = fanin_off_[v]; i < fanin_off_[v + 1]; ++i) {
      push(fanin_node_[i]);
    }
    for (NodeId p : extra_in_[v]) push(p.value);
  }
}

void TimingCache::pin(NodeId n, int step) {
  if (pos_[n.value] < 0) throw std::out_of_range("TimingCache::pin: dead node");
  if (pinned_[n.value] >= 0) {
    throw std::logic_error("TimingCache::pin: node '" + g_->node(n).name +
                           "' already pinned");
  }
  if (step < lo_[n.value] || step > hi_[n.value]) {
    throw std::logic_error("TimingCache::pin: step " + std::to_string(step) +
                           " outside window [" + std::to_string(lo_[n.value]) +
                           ", " + std::to_string(hi_[n.value]) + "] of '" +
                           g_->node(n).name + "'");
  }
  // Clear only the marks set by the previous call, not the whole bitmap.
  for (NodeId c : changed_) changed_mark_[c.value] = false;
  changed_.clear();
#if LWM_OBS_ENABLED
  const std::uint64_t work_before = update_work_;
#endif

  const std::size_t v = n.value;
  const bool raised_lo = step > lo_[v];
  const bool lowered_hi = step < hi_[v];
  pinned_[v] = step;
  lo_[v] = step;
  hi_[v] = step;
  // The consumer contract: the pinned node is always reported, even when
  // its window was already the single step (its pinned state changed).
  note_changed(n);
  // Re-relax the fan-out cone when the pin raised n's lo, the fan-in cone
  // when it lowered n's hi.
  if (raised_lo) {
    seeds_.clear();
    for (std::uint32_t i = fanout_off_[v]; i < fanout_off_[v + 1]; ++i) {
      seeds_.push_back(NodeId{fanout_node_[i]});
    }
    for (NodeId s : extra_out_[v]) seeds_.push_back(s);
    propagate_lo(seeds_);
  }
  if (lowered_hi) {
    seeds_.clear();
    for (std::uint32_t i = fanin_off_[v]; i < fanin_off_[v + 1]; ++i) {
      seeds_.push_back(NodeId{fanin_node_[i]});
    }
    for (NodeId p : extra_in_[v]) seeds_.push_back(p);
    propagate_hi(seeds_);
  }
#if LWM_OBS_ENABLED
  LWM_COUNT("cdfg/timing_pushes", update_work_ - work_before);
  LWM_HIST("cdfg/timing_cone", changed_.size());
#endif
}

void TimingCache::union_descendants(NodeId src, NodeId dst) {
  // New descendants flowing into src: dst itself plus dst's row.  Walk up
  // src's ancestors, stopping wherever the row is already a superset.
  std::vector<std::uint64_t> add(desc_.begin() + static_cast<std::ptrdiff_t>(row(dst.value)),
                                 desc_.begin() + static_cast<std::ptrdiff_t>(row(dst.value) + words_));
  add[dst.value / 64] |= bit_mask(dst.value);

  std::vector<NodeId> stack{src};
  while (!stack.empty()) {
    const NodeId a = stack.back();
    stack.pop_back();
    std::uint64_t* mine = desc_.data() + row(a.value);
    bool grew = false;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t next = mine[w] | add[w];
      if (next != mine[w]) {
        mine[w] = next;
        grew = true;
      }
    }
    if (!grew) continue;
    const std::size_t v = a.value;
    for (std::uint32_t i = fanin_off_[v]; i < fanin_off_[v + 1]; ++i) {
      stack.push_back(NodeId{fanin_node_[i]});
    }
    for (NodeId p : extra_in_[v]) stack.push_back(p);
  }
}

void TimingCache::add_extra_edge(NodeId src, NodeId dst) {
  if (pos_[src.value] < 0 || pos_[dst.value] < 0) {
    throw std::out_of_range("TimingCache::add_extra_edge: dead endpoint");
  }
  if (src == dst || (with_reach_ && reaches(dst, src))) {
    throw std::logic_error("TimingCache::add_extra_edge: edge '" +
                           g_->node(src).name + "' -> '" + g_->node(dst).name +
                           "' would close a cycle");
  }
  extra_out_[src.value].push_back(dst);
  extra_in_[dst.value].push_back(src);
  if (with_reach_) union_descendants(src, dst);

  for (NodeId c : changed_) changed_mark_[c.value] = false;
  changed_.clear();
#if LWM_OBS_ENABLED
  const std::uint64_t work_before = update_work_;
#endif
  seeds_.assign(1, dst);
  propagate_lo(seeds_);
  seeds_.assign(1, src);
  propagate_hi(seeds_);
#if LWM_OBS_ENABLED
  LWM_COUNT("cdfg/timing_pushes", update_work_ - work_before);
  LWM_HIST("cdfg/timing_cone", changed_.size());
#endif
}

bool TimingCache::reaches(NodeId src, NodeId dst) const {
  if (!with_reach_) {
    throw std::logic_error(
        "TimingCache::reaches: constructed without reachability");
  }
  if (pos_[src.value] < 0 || pos_[dst.value] < 0) return false;
  if (src == dst) return true;
  return (desc_[row(src.value) + dst.value / 64] & bit_mask(dst.value)) != 0;
}

}  // namespace lwm::cdfg
