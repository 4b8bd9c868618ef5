#include "serve/design_store.h"

#include <exception>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "obs/obs.h"
#include "sched/schedule_io.h"

namespace lwm::serve {

std::uint64_t content_hash(std::string_view bytes) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

StoredDesign::StoredDesign(std::uint64_t id_, std::size_t bytes, cdfg::Graph g)
    : id(id_),
      text_bytes(bytes),
      graph(std::move(g)),
      plan(wm::PlanContext::build(graph, wm::SchedWmOptions{})),
      critical_path_min(graph.has_bounded_delays()
                            ? cdfg::compute_timing_bounded(
                                  graph, -1, cdfg::EdgeFilter::specification())
                                  .critical_path_min
                            : plan.timing.critical_path) {}

wm::ConeMemo& StoredDesign::cone_memo(int tau) const {
  std::call_once(memo_once_, [&] {
    memo_ = std::make_unique<wm::ConeMemo>(graph.node_capacity(), tau);
  });
  return *memo_;
}

DesignStore::DesignStore(DesignStoreOptions opts) : opts_(opts) {}

io::ParseResult<std::shared_ptr<const StoredDesign>> DesignStore::load_design(
    std::string_view text, std::string_view source_name) {
  const std::uint64_t id = content_hash(text);
  DesignShard& shard = designs_[shard_of(id)];
  {
    std::shared_lock lock(shard.mutex);
    const auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      it->second->last_used.store(tick(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      LWM_COUNT("serve/store_hits", 1);
      return it->second->design;
    }
  }

  // Miss: parse and build every derived structure outside any lock.
  io::ParseResult<cdfg::Graph> parsed = cdfg::parse_cdfg(text, source_name);
  if (!parsed.ok()) return parsed.diag();
  std::shared_ptr<const StoredDesign> design;
  try {
    design = std::make_shared<const StoredDesign>(id, text.size(),
                                                  std::move(parsed).value());
  } catch (const std::exception& e) {
    // Structural failures the per-line parser cannot see (e.g. a cyclic
    // precedence relation breaking the topological sort) surface here.
    return io::Diagnostic{std::string(source_name), 0, 0, e.what()};
  }

  {
    std::unique_lock lock(shard.mutex);
    const auto [it, inserted] = shard.map.try_emplace(id);
    if (!inserted) {
      // Lost the insert race: first wins, our build is discarded.
      it->second->last_used.store(tick(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      LWM_COUNT("serve/store_hits", 1);
      return it->second->design;
    }
    it->second = std::make_shared<DesignEntry>();
    it->second->design = design;
    it->second->last_used.store(tick(), std::memory_order_relaxed);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  LWM_COUNT("serve/store_misses", 1);
  resident_bytes_.fetch_add(text.size(), std::memory_order_relaxed);
  enforce_budget(id);
  return design;
}

std::shared_ptr<const StoredDesign> DesignStore::find_design(
    std::uint64_t id) const {
  const DesignShard& shard = designs_[shard_of(id)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    LWM_COUNT("serve/store_misses", 1);
    return nullptr;
  }
  it->second->last_used.store(tick(), std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  LWM_COUNT("serve/store_hits", 1);
  return it->second->design;
}

io::ParseResult<std::shared_ptr<const StoredSchedule>>
DesignStore::load_schedule(const std::shared_ptr<const StoredDesign>& design,
                           std::string_view text,
                           std::string_view source_name) {
  const std::uint64_t sched_id = content_hash(text);
  const std::uint64_t key = schedule_key(design->id, sched_id);
  ScheduleShard& shard = schedules_[shard_of(key)];
  {
    std::shared_lock lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->last_used.store(tick(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      LWM_COUNT("serve/store_hits", 1);
      return it->second->schedule;
    }
  }

  io::ParseResult<sched::Schedule> parsed =
      sched::parse_schedule(design->graph, text, source_name);
  if (!parsed.ok()) return parsed.diag();
  auto stored = std::make_shared<const StoredSchedule>(StoredSchedule{
      sched_id, text.size(), design, std::move(parsed).value()});

  {
    std::unique_lock lock(shard.mutex);
    const auto [it, inserted] = shard.map.try_emplace(key);
    if (!inserted) {
      it->second->last_used.store(tick(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      LWM_COUNT("serve/store_hits", 1);
      return it->second->schedule;
    }
    it->second = std::make_shared<ScheduleEntry>();
    it->second->schedule = stored;
    it->second->last_used.store(tick(), std::memory_order_relaxed);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  LWM_COUNT("serve/store_misses", 1);
  resident_bytes_.fetch_add(text.size(), std::memory_order_relaxed);
  enforce_budget(design->id);
  return stored;
}

std::shared_ptr<const StoredSchedule> DesignStore::find_schedule(
    std::uint64_t design_id, std::uint64_t sched_id) const {
  const std::uint64_t key = schedule_key(design_id, sched_id);
  const ScheduleShard& shard = schedules_[shard_of(key)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    LWM_COUNT("serve/store_misses", 1);
    return nullptr;
  }
  it->second->last_used.store(tick(), std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  LWM_COUNT("serve/store_hits", 1);
  return it->second->schedule;
}

bool DesignStore::evict_design_locked_free(std::uint64_t id) {
  std::size_t freed = 0;
  bool existed = false;
  std::uint64_t removed = 0;
  {
    DesignShard& shard = designs_[shard_of(id)];
    std::unique_lock lock(shard.mutex);
    const auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      freed += it->second->design->text_bytes;
      shard.map.erase(it);
      existed = true;
      ++removed;
    }
  }
  if (existed) {
    // Drop every schedule parsed against the design: their graph is gone
    // from the store, so their ids must stop resolving too (in-flight
    // holders keep both alive through their shared_ptrs).
    for (ScheduleShard& shard : schedules_) {
      std::unique_lock lock(shard.mutex);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (it->second->schedule->design->id == id) {
          freed += it->second->schedule->text_bytes;
          it = shard.map.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
    }
  }
  if (freed > 0) resident_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  if (removed > 0) {
    evictions_.fetch_add(removed, std::memory_order_relaxed);
    LWM_COUNT("serve/store_evictions", removed);
  }
  return existed;
}

bool DesignStore::evict_design(std::uint64_t id) {
  std::lock_guard guard(evict_mutex_);
  return evict_design_locked_free(id);
}

void DesignStore::enforce_budget(std::uint64_t keep_design_id) {
  if (resident_bytes_.load(std::memory_order_relaxed) <=
      opts_.max_resident_bytes) {
    return;
  }
  std::lock_guard guard(evict_mutex_);
  while (resident_bytes_.load(std::memory_order_relaxed) >
         opts_.max_resident_bytes) {
    // Global LRU sweep over both kinds of entries.  Eviction is rare
    // (only when the budget trips) so the scan cost is acceptable; the
    // newest design is exempt so an over-budget store still serves the
    // request that grew it.
    bool found = false;
    bool victim_is_design = false;
    std::uint64_t victim_design = 0;
    std::uint64_t victim_key = 0;
    std::size_t victim_shard = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (const DesignShard& shard : designs_) {
      std::shared_lock lock(shard.mutex);
      for (const auto& [id, entry] : shard.map) {
        if (id == keep_design_id) continue;
        const std::uint64_t used =
            entry->last_used.load(std::memory_order_relaxed);
        if (used < oldest) {
          oldest = used;
          found = true;
          victim_is_design = true;
          victim_design = id;
        }
      }
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      const ScheduleShard& shard = schedules_[s];
      std::shared_lock lock(shard.mutex);
      for (const auto& [key, entry] : shard.map) {
        const std::uint64_t used =
            entry->last_used.load(std::memory_order_relaxed);
        if (used < oldest) {
          oldest = used;
          found = true;
          victim_is_design = false;
          victim_key = key;
          victim_shard = s;
        }
      }
    }
    if (!found) break;  // only the protected design remains
    if (victim_is_design) {
      evict_design_locked_free(victim_design);
    } else {
      ScheduleShard& shard = schedules_[victim_shard];
      std::unique_lock lock(shard.mutex);
      const auto it = shard.map.find(victim_key);
      if (it != shard.map.end()) {
        resident_bytes_.fetch_sub(it->second->schedule->text_bytes,
                                  std::memory_order_relaxed);
        shard.map.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        LWM_COUNT("serve/store_evictions", 1);
      }
    }
  }
}

DesignStoreStats DesignStore::stats() const {
  DesignStoreStats s;
  for (const DesignShard& shard : designs_) {
    std::shared_lock lock(shard.mutex);
    s.designs += shard.map.size();
  }
  for (const ScheduleShard& shard : schedules_) {
    std::shared_lock lock(shard.mutex);
    s.schedules += shard.map.size();
  }
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lwm::serve
