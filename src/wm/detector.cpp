#include "wm/detector.h"

#include <algorithm>
#include <optional>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"

namespace lwm::wm {

using cdfg::Graph;
using cdfg::NodeId;

namespace {

std::vector<NodeId> executable_roots(const Graph& g) {
  std::vector<NodeId> roots;
  for (NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) roots.push_back(n);
  }
  return roots;
}

/// Carve-skipping prefilter.  The locality ordering puts the root LAST
/// in d.selected: the root is the unique level-0 node of its cone (every
/// other member has level >= 1) and the C1 sort is level-descending, so
/// any successful structural gate implies record.subtree_ops.back() ==
/// functional_id(candidate root).  Checking that one int before carving
/// skips the expensive keyed BFS at every root whose operation cannot
/// possibly close the gate — the common case when scanning a mega-design
/// for a handful of records.
bool root_may_match(const SchedRecord& record, int root_fid) {
  return !record.subtree_ops.empty() && record.subtree_ops.back() == root_fid;
}

/// Every position indexes the memorized subtree and every op id names an
/// op kind.  Checked once per record before the scan: a record that fails
/// can never hit.
bool well_formed(const SchedRecord& record) {
  const auto in_subtree = [&](int pos) {
    return pos >= 0 && static_cast<std::size_t>(pos) < record.subtree_ops.size();
  };
  const auto names_op = [](int op) { return op >= 1 && op <= cdfg::kNumOpKinds; };
  return std::ranges::all_of(record.subtree_ops, names_op) &&
         std::ranges::all_of(record.positions, [&](const auto& pair) {
           return in_subtree(pair.first) && in_subtree(pair.second);
         });
}

/// The §IV-A check at one carved root: nothing unless the carve is the
/// memorized subtree, else the constraints counted against `schedule`.
std::optional<SchedHit> gate(const Graph& suspect,
                             const sched::Schedule& schedule, const Domain& d,
                             const SchedRecord& record) {
  if (!subtree_matches(suspect, d, record.subtree_ops)) return std::nullopt;
  SchedHit hit;
  hit.root = d.root;
  for (const auto& [src_pos, dst_pos] : record.positions) {
    const NodeId src = d.selected[static_cast<std::size_t>(src_pos)];
    const NodeId dst = d.selected[static_cast<std::size_t>(dst_pos)];
    ++hit.total;
    if (schedule.is_scheduled(src) && schedule.is_scheduled(dst) &&
        schedule.start_of(src) + suspect.node(src).delay <=
            schedule.start_of(dst)) {
      ++hit.satisfied;
    }
  }
  return hit;
}

}  // namespace

SchedRecord SchedRecord::from(const SchedWatermark& wm, const cdfg::Graph& g) {
  SchedRecord r;
  r.domain = wm.options.domain;
  for (const TemporalConstraint& c : wm.constraints) {
    r.positions.emplace_back(c.src_pos, c.dst_pos);
  }
  r.subtree_ops.reserve(wm.subtree.size());
  for (const cdfg::NodeId n : wm.subtree) {
    r.subtree_ops.push_back(cdfg::functional_id(g.node(n).kind));
  }
  return r;
}

ConeMemo::ConeMemo(std::size_t node_capacity, int tau)
    : tau_(tau),
      slots_(node_capacity),
      state_(std::make_unique<std::atomic<std::uint8_t>[]>(node_capacity)) {}

const ConeFingerprint* ConeMemo::find(NodeId root) const {
  if (root.value >= slots_.size() ||
      state_[root.value].load(std::memory_order_acquire) != 1) {
    return nullptr;
  }
  return &slots_[root.value];
}

void ConeMemo::publish(NodeId root, const ConeFingerprint& fp) {
  if (root.value >= slots_.size()) return;
  std::uint8_t empty = 0;
  if (!state_[root.value].compare_exchange_strong(empty, 2,
                                                  std::memory_order_relaxed)) {
    return;
  }
  slots_[root.value] = fp;
  state_[root.value].store(1, std::memory_order_release);
}

std::vector<SchedDetectionReport> detect_sched_watermarks(
    const Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& sig, std::span<const SchedRecord> records,
    exec::ThreadPool* pool, ConeMemo* memo) {
  LWM_SPAN("wm/detect_batch");
  std::vector<SchedDetectionReport> reports(records.size());
  if (records.empty()) return reports;

  // Group well-formed records by domain key — one carve per (root, key).
  // A group at the memo's tau reads and fills it.
  struct Group {
    DomainKey key;
    std::vector<std::size_t> record_idx;
    ConeMemo* memo = nullptr;
  };
  std::vector<Group> groups;
  std::vector<ConeFingerprint> needs(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!well_formed(records[i])) continue;
    needs[i] = ConeFingerprint::of_ops(records[i].subtree_ops);
    const auto home = std::ranges::find(groups, records[i].domain, &Group::key);
    if (home == groups.end()) {
      ConeMemo* m = memo != nullptr && memo->tau() == records[i].domain.tau
                        ? memo
                        : nullptr;
      groups.push_back(Group{records[i].domain, {i}, m});
    } else {
      home->record_idx.push_back(i);
    }
  }

  const crypto::Bitstream carve = sig.stream(DomainKey::kCarveTag);
  const std::vector<NodeId> roots = executable_roots(suspect);
  LWM_COUNT("wm/roots_scanned", roots.size() * records.size());
  const std::size_t shards = exec::suggested_chunks(pool, roots.size());
  LWM_COUNT("wm/detect_root_shards", shards);

  // Per-chunk partials, one per record; merged in chunk order so hits and
  // the best-root tie-break match the serial scan.
  struct Partial {
    std::vector<SchedHit> hits;
    int best_satisfied = -1;
    NodeId best_root;
  };
  using Part = std::vector<Partial>;
  Part merged = exec::parallel_reduce(
      pool, roots.size(), shards, Part(records.size()),
      [&](std::size_t begin, std::size_t end) {
        Part part(records.size());
        [[maybe_unused]] std::size_t skips = 0;
        [[maybe_unused]] std::size_t fingerprints = 0;
        std::vector<std::size_t> carved;
        CarveScratch scratch;
        for (std::size_t r = begin; r < end; ++r) {
          const NodeId n = roots[r];
          const int root_fid = cdfg::functional_id(suspect.node(n).kind);
          const auto candidate = [&](std::size_t i) {
            return root_may_match(records[i], root_fid);
          };
          for (const Group& grp : groups) {
            // The carve is skipped unless some record of the group passes
            // both prefilters: root op first, then the cone fingerprint.
            if (std::ranges::none_of(grp.record_idx, candidate)) {
              ++skips;
              continue;
            }
            const auto fits = [&](const ConeFingerprint& cone) {
              return std::ranges::any_of(grp.record_idx, [&](std::size_t i) {
                return candidate(i) && cone.may_hold(needs[i]);
              });
            };
            const ConeFingerprint* memoized =
                grp.memo != nullptr ? grp.memo->find(n) : nullptr;
            if (memoized != nullptr && !fits(*memoized)) {
              ++skips;
              continue;
            }
            gather_cone(suspect, n, grp.key.tau, scratch);
            if (memoized == nullptr) {
              const auto fp = ConeFingerprint::of_cone(suspect, scratch.cone);
              ++fingerprints;
              if (grp.memo != nullptr) grp.memo->publish(n, fp);
              if (!fits(fp)) {
                ++skips;
                continue;
              }
            }
            const Domain d = carve_cone(suspect, carve, grp.key, scratch);
            carved.push_back(d.selected.size());
            for (const std::size_t i : grp.record_idx) {
              if (!candidate(i)) continue;
              const std::optional<SchedHit> hit =
                  gate(suspect, schedule, d, records[i]);
              if (!hit) continue;
              Partial& p = part[i];
              if (hit->full()) p.hits.push_back(*hit);
              if (hit->satisfied > p.best_satisfied) {
                p.best_satisfied = hit->satisfied;
                p.best_root = n;
              }
            }
          }
        }
        LWM_COUNT("wm/detect_prefilter_skips", skips);
        LWM_COUNT("wm/cone_fingerprints", fingerprints);
        record_carves(carved);
        return part;
      },
      [](Part acc, Part next) {
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i].hits.insert(acc[i].hits.end(), next[i].hits.begin(),
                             next[i].hits.end());
          if (next[i].best_satisfied > acc[i].best_satisfied) {
            acc[i].best_satisfied = next[i].best_satisfied;
            acc[i].best_root = next[i].best_root;
          }
        }
        return acc;
      });

  for (std::size_t i = 0; i < records.size(); ++i) {
    reports[i].hits = std::move(merged[i].hits);
    reports[i].best_root = merged[i].best_root;
    reports[i].roots_scanned = static_cast<int>(roots.size());
  }
  return reports;
}

TmDetectionReport detect_tm_watermark(const Graph& suspect,
                                      const tmatch::Cover& suspect_cover,
                                      const tmatch::TemplateLibrary& lib,
                                      const crypto::Signature& sig,
                                      const TmWmOptions& opts) {
  TmDetectionReport report;
  const std::optional<TmWatermark> replanned =
      plan_tm_watermark(suspect, lib, sig, opts);
  if (!replanned) return report;

  for (const tmatch::Match& want : replanned->enforced) {
    ++report.total;
    for (const tmatch::Match& have : suspect_cover.matches) {
      if (have.template_id != want.template_id) continue;
      if (have.nodes == want.nodes) {
        ++report.found;
        break;
      }
    }
  }
  return report;
}

}  // namespace lwm::wm
