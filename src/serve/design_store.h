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
//     it, so no request re-times the whole graph.  Its `fanin` is the
//     one resident wm::FaninView that every embed, pc and detect carve
//     reads, and its `ops` are detection's roots.  The one mutable
//     member is the detector's wm::ConeMemo, a pure cache that detect
//     requests fill.  Requests that mutate
//     (embed) copy the graph; NodeIds are preserved by copying, so the
//     resident PlanContext remains valid for the copy.
//   * **Eviction never invalidates readers.**  Entries are
//     shared_ptr<const ...>; eviction only drops the store's reference.
//     A request holding the pointer keeps the design alive until it
//     finishes — there is no use-after-evict by construction.
//
// Schedules are resident too, each in its design's entry keyed by the
// schedule text hash: a detect request against a resident (design,
// schedule) pair carries only ids and records, no re-parse, and a
// schedule id resolves only under the design it was parsed against.
// Invariants are documented in DESIGN.md §11.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

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
  /// Whole-graph planning and carve state for embed, pc and detect
  /// requests (option-free, so it is valid for any per-request
  /// k/tau/epsilon).  `plan.timing` is the resident specification timing
  /// (temporal edges excluded, latency = critical path) that P_c
  /// estimates read as their windows; `plan.fanin` is the carves' view.
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
  /// the store over, least-recently-used entries (designs with their
  /// schedules, or single schedules) are evicted until the budget holds
  /// again — except the design just inserted or loaded against, which
  /// always stays (otherwise a single over-budget design would thrash
  /// forever).
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

/// One map under one mutex: each design entry owns its schedules, so a
/// schedule resolves only through its own design and leaves with it.
/// Lookups are O(1) probes under the lock; inserts parse and build
/// *outside* it and only then insert (an insert race is resolved
/// first-wins, preserving the same-bytes ⇒ same-instance guarantee).
class DesignStore {
 public:
  explicit DesignStore(DesignStoreOptions opts = {}) : opts_(opts) {}

  /// Parses `text` through the trust-boundary core and makes the design
  /// resident.  Malformed text, cyclic precedence, and every other
  /// construction failure come back as a located Diagnostic (never an
  /// exception).  If the same bytes are already resident the existing
  /// instance is returned (a hit) without re-parsing; `was_resident`,
  /// when given, says which of the two happened.
  [[nodiscard]] io::ParseResult<std::shared_ptr<const StoredDesign>> load_design(
      std::string_view text, std::string_view source_name = "<design>",
      bool* was_resident = nullptr);

  /// nullptr when not resident.
  [[nodiscard]] std::shared_ptr<const StoredDesign> find_design(
      std::uint64_t id) const;

  /// Parses a schedule against `design` and makes it resident under that
  /// design's entry, keyed by content_hash(text).  When `design` is no
  /// longer resident (evicted while the text parsed) the parse is
  /// returned and nothing becomes resident.
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
  template <class T>
  struct Entry {
    std::shared_ptr<const T> ptr;
    mutable std::uint64_t last_used = 0;  ///< LRU tick
  };
  using ScheduleMap = std::unordered_map<std::uint64_t, Entry<StoredSchedule>>;
  struct DesignEntry : Entry<StoredDesign> {
    ScheduleMap schedules;  ///< keyed by schedule text hash
  };
  using DesignMap = std::unordered_map<std::uint64_t, DesignEntry>;
  /// Entries unlinked under mutex_.  Declared before the lock guard, so
  /// they are destroyed after it is released: no lookup waits on a
  /// large graph's destructor.
  using Graveyard = std::vector<std::shared_ptr<const void>>;

  // Every private member function requires mutex_ held.
  template <class T>
  std::shared_ptr<const T> hit(const Entry<T>& e) const;
  template <class T>
  std::shared_ptr<const T> lookup(const Entry<T>* e) const;
  template <class T>
  void admit(Entry<T>& e, std::shared_ptr<const T> p,
             std::uint64_t keep_design_id, Graveyard& dead);
  template <class T>
  void retire(std::shared_ptr<const T>& p, Graveyard& dead);
  void unlink_design(DesignMap::iterator it, Graveyard& dead);
  void enforce_budget(std::uint64_t keep_design_id, Graveyard& dead);

  DesignStoreOptions opts_;
  mutable std::mutex mutex_;
  DesignMap designs_;
  mutable std::uint64_t clock_ = 0;
  /// Bytes and traffic; stats() counts designs and schedules on demand.
  mutable DesignStoreStats counts_;
};

}  // namespace lwm::serve
