// design_store.h — content-hashed, immutable resident designs.
//
// The service's whole performance story is amortization: parsing a
// 100k-op CDFG and building its timing state costs hundreds of
// milliseconds, while a resident detect request costs a prefiltered
// batch scan.  The DesignStore makes that amortization safe:
//
//   * **Content addressing.**  A design's identity is the FNV-1a 64
//     hash of its exact serialized bytes.  Loading the same bytes twice
//     yields the *same* shared StoredDesign instance (first insert
//     wins); clients never coordinate ids.
//   * **Immutability.**  A StoredDesign is frozen at load: the graph
//     and its wm::PlanContext are built once and only ever read.  The
//     context's `timing` is the design's one resident specification
//     timing — planning, the load response and every P_c estimate read
//     it, so no request re-times the whole graph.  The one mutable
//     member is the detector's wm::ConeMemo, a pure cache that detect
//     requests fill.  Requests that mutate
//     (embed) copy the graph; NodeIds are preserved by copying, so the
//     resident PlanContext remains valid for the copy.
//   * **Eviction never invalidates readers.**  Entries are
//     shared_ptr<const ...>; eviction only drops the store's reference.
//     A request holding the pointer keeps the design alive until it
//     finishes — there is no use-after-evict by construction.
//
// Schedules are resident too (keyed by design id + schedule text hash):
// a detect request against a resident (design, schedule) pair carries
// only ids and records, no re-parse.  Invariants are documented in
// DESIGN.md §11.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>

#include "cdfg/graph.h"
#include "io/parse_result.h"
#include "sched/schedule.h"
#include "wm/detector.h"
#include "wm/sched_constraints.h"

namespace lwm::serve {

/// FNV-1a 64 over the exact bytes — the content address.  Stable across
/// processes and platforms (pure byte arithmetic, no seed).
[[nodiscard]] std::uint64_t content_hash(std::string_view bytes) noexcept;

/// One resident design: the parsed graph plus every piece of derived
/// state worth amortizing.  Immutable after construction.
struct StoredDesign {
  std::uint64_t id;        ///< content_hash of the source text
  std::size_t text_bytes;  ///< size of the source text (budget proxy)
  cdfg::Graph graph;
  /// Whole-graph planning state for embed requests (avoid_k_worst == 0,
  /// so it is valid for any per-request k/tau/epsilon).  `plan.timing`
  /// is the resident specification timing (temporal edges excluded,
  /// latency = critical path) that P_c estimates read as their windows.
  wm::PlanContext plan;
  /// Minimum schedule length if every delay realizes at its lower bound:
  /// one compute_timing_bounded pass at load on a bounded-delay design,
  /// plan.timing.critical_path otherwise.
  int critical_path_min;

  StoredDesign(std::uint64_t id_, std::size_t bytes, cdfg::Graph g);

  /// The detector's cone-fingerprint memo over `graph`: created by the
  /// first call, at that call's tau, and kept at that tau for the
  /// design's lifetime, so a client cycling taus cannot multiply it.
  /// About 21 bytes per node, freed with the design.
  [[nodiscard]] wm::ConeMemo& cone_memo(int tau) const;

 private:
  // The one mutable member: a pure cache, never observable in a report.
  mutable std::once_flag memo_once_;
  mutable std::unique_ptr<wm::ConeMemo> memo_;
};

/// One resident suspect schedule, pinned to the design it was parsed
/// against (the shared_ptr keeps that design alive even if evicted).
struct StoredSchedule {
  std::uint64_t id;        ///< content_hash of the schedule text
  std::size_t text_bytes;  ///< size of the schedule text
  std::shared_ptr<const StoredDesign> design;
  sched::Schedule schedule;
};

struct DesignStoreOptions {
  /// Soft cap on resident bytes (text-size proxy).  When an insert puts
  /// the store over, least-recently-used entries are evicted until the
  /// budget holds again — except the entry just inserted, which always
  /// stays (otherwise a single over-budget design would thrash forever).
  std::size_t max_resident_bytes = std::size_t{256} << 20;
};

struct DesignStoreStats {
  std::size_t designs = 0;
  std::size_t schedules = 0;
  std::size_t resident_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// Sharded read-mostly map: lookups take one shard's shared lock;
/// inserts parse and build *outside* any lock and only then take the
/// exclusive lock (an insert race is resolved first-wins, preserving
/// the same-bytes ⇒ same-instance guarantee).
class DesignStore {
 public:
  explicit DesignStore(DesignStoreOptions opts = {});

  /// Parses `text` through the trust-boundary core and makes the design
  /// resident.  Malformed text, cyclic precedence, and every other
  /// construction failure come back as a located Diagnostic (never an
  /// exception).  If the same bytes are already resident the existing
  /// instance is returned (a hit) without re-parsing.
  [[nodiscard]] io::ParseResult<std::shared_ptr<const StoredDesign>> load_design(
      std::string_view text, std::string_view source_name = "<design>");

  /// nullptr when not resident.
  [[nodiscard]] std::shared_ptr<const StoredDesign> find_design(
      std::uint64_t id) const;

  /// Parses a schedule against `design` and makes it resident under
  /// (design->id, content_hash(text)).
  [[nodiscard]] io::ParseResult<std::shared_ptr<const StoredSchedule>>
  load_schedule(const std::shared_ptr<const StoredDesign>& design,
                std::string_view text,
                std::string_view source_name = "<schedule>");

  [[nodiscard]] std::shared_ptr<const StoredSchedule> find_schedule(
      std::uint64_t design_id, std::uint64_t sched_id) const;

  /// Drops a design and every schedule parsed against it.  Returns
  /// whether the design was resident.  In-flight shared_ptrs stay valid.
  bool evict_design(std::uint64_t id);

  [[nodiscard]] DesignStoreStats stats() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct DesignEntry {
    std::shared_ptr<const StoredDesign> design;
    mutable std::atomic<std::uint64_t> last_used{0};
  };
  struct ScheduleEntry {
    std::shared_ptr<const StoredSchedule> schedule;
    mutable std::atomic<std::uint64_t> last_used{0};
  };
  struct DesignShard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<DesignEntry>> map;
  };
  struct ScheduleShard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<ScheduleEntry>> map;
  };

  [[nodiscard]] static std::size_t shard_of(std::uint64_t id) noexcept {
    // Mix before masking: content hashes are well distributed, but ids
    // arriving from a client are attacker-chosen bytes.
    return static_cast<std::size_t>((id ^ (id >> 32)) * 0x9E3779B97F4A7C15ull
                                    >> 60) % kShards;
  }
  [[nodiscard]] static std::uint64_t schedule_key(std::uint64_t design_id,
                                                 std::uint64_t sched_id) noexcept {
    return design_id ^ (sched_id * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
  }
  [[nodiscard]] std::uint64_t tick() const noexcept {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  bool evict_design_locked_free(std::uint64_t id);
  void enforce_budget(std::uint64_t keep_design_id);

  DesignStoreOptions opts_;
  DesignShard designs_[kShards];
  ScheduleShard schedules_[kShards];
  mutable std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::mutex evict_mutex_;  ///< serializes budget enforcement
};

}  // namespace lwm::serve
