#include "serve/design_store.h"

#include <exception>
#include <utility>

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
      plan(wm::PlanContext::build(graph)),
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

namespace {

template <class Map>
const typename Map::mapped_type* find_in(const Map& map, std::uint64_t key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

template <class T>
std::shared_ptr<const T> DesignStore::hit(const Entry<T>& e) const {
  e.last_used = ++clock_;
  ++counts_.hits;
  LWM_COUNT("serve/store_hits", 1);
  return e.ptr;
}

template <class T>
std::shared_ptr<const T> DesignStore::lookup(const Entry<T>* e) const {
  if (e) return hit(*e);
  ++counts_.misses;
  LWM_COUNT("serve/store_misses", 1);
  return nullptr;
}

template <class T>
void DesignStore::admit(Entry<T>& e, std::shared_ptr<const T> p,
                        std::uint64_t keep_design_id, Graveyard& dead) {
  counts_.resident_bytes += p->text_bytes;
  e.ptr = std::move(p);
  e.last_used = ++clock_;
  ++counts_.misses;
  LWM_COUNT("serve/store_misses", 1);
  enforce_budget(keep_design_id, dead);
}

template <class T>
void DesignStore::retire(std::shared_ptr<const T>& p, Graveyard& dead) {
  counts_.resident_bytes -= p->text_bytes;
  ++counts_.evictions;
  LWM_COUNT("serve/store_evictions", 1);
  dead.push_back(std::move(p));
}

io::ParseResult<std::shared_ptr<const StoredDesign>> DesignStore::load_design(
    std::string_view text, std::string_view source_name, bool* was_resident) {
  const std::uint64_t id = content_hash(text);
  if (was_resident) *was_resident = false;
  {
    std::lock_guard lock(mutex_);
    if (const DesignEntry* e = find_in(designs_, id)) {
      if (was_resident) *was_resident = true;
      return hit(*e);
    }
  }

  // Miss: parse and build every derived structure outside the lock.
  io::ParseResult<cdfg::Graph> parsed = cdfg::parse_cdfg(text, source_name);
  if (!parsed.ok()) return parsed.diag();
  std::shared_ptr<const StoredDesign> design;
  try {
    LWM_SPAN("serve/store_build");
    design = std::make_shared<const StoredDesign>(id, text.size(),
                                                  std::move(parsed).value());
  } catch (const std::exception& e) {
    // Structural failures the per-line parser cannot see (e.g. a cyclic
    // precedence relation breaking the topological sort) surface here.
    return io::Diagnostic{std::string(source_name), 0, 0, e.what()};
  }

  Graveyard dead;
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = designs_.try_emplace(id);
  if (!inserted) {
    // Lost the insert race: first wins, our build is discarded.
    if (was_resident) *was_resident = true;
    return hit(it->second);
  }
  admit<StoredDesign>(it->second, design, id, dead);
  return design;
}

std::shared_ptr<const StoredDesign> DesignStore::find_design(
    std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  return lookup<StoredDesign>(find_in(designs_, id));
}

io::ParseResult<std::shared_ptr<const StoredSchedule>>
DesignStore::load_schedule(const std::shared_ptr<const StoredDesign>& design,
                           std::string_view text,
                           std::string_view source_name) {
  const std::uint64_t sched_id = content_hash(text);
  {
    std::lock_guard lock(mutex_);
    const DesignEntry* d = find_in(designs_, design->id);
    if (const auto* e = d ? find_in(d->schedules, sched_id) : nullptr) {
      return hit(*e);
    }
  }

  io::ParseResult<sched::Schedule> parsed =
      sched::parse_schedule(design->graph, text, source_name);
  if (!parsed.ok()) return parsed.diag();
  auto stored = std::make_shared<const StoredSchedule>(StoredSchedule{
      sched_id, text.size(), design, std::move(parsed).value()});

  Graveyard dead;
  std::lock_guard lock(mutex_);
  const auto d = designs_.find(design->id);
  // The design left the store while the text parsed: answer this load
  // with its parse but make nothing resident, so no schedule outlives
  // its design's entry (and pins bytes the budget no longer counts).
  if (d == designs_.end() || d->second.ptr != design) return stored;
  const auto [it, inserted] = d->second.schedules.try_emplace(sched_id);
  if (!inserted) return hit(it->second);
  admit<StoredSchedule>(it->second, stored, design->id, dead);
  return stored;
}

std::shared_ptr<const StoredSchedule> DesignStore::find_schedule(
    std::uint64_t design_id, std::uint64_t sched_id) const {
  std::lock_guard lock(mutex_);
  const DesignEntry* d = find_in(designs_, design_id);
  return lookup(d ? find_in(d->schedules, sched_id) : nullptr);
}

void DesignStore::unlink_design(DesignMap::iterator it, Graveyard& dead) {
  // The design's schedules go with it: their ids resolve only through
  // this entry (in-flight holders keep both alive via their shared_ptrs).
  for (auto& [sched_id, s] : it->second.schedules) retire(s.ptr, dead);
  retire(it->second.ptr, dead);
  designs_.erase(it);
}

bool DesignStore::evict_design(std::uint64_t id) {
  Graveyard dead;
  std::lock_guard lock(mutex_);
  const auto it = designs_.find(id);
  if (it == designs_.end()) return false;
  unlink_design(it, dead);
  return true;
}

void DesignStore::enforce_budget(std::uint64_t keep_design_id,
                                 Graveyard& dead) {
  while (counts_.resident_bytes > opts_.max_resident_bytes) {
    // Global LRU sweep over designs and individual schedules, so one hot
    // design cannot collect unbounded schedules.  Eviction is rare (only
    // when the budget trips) so the scan cost is acceptable; the design
    // just inserted or loaded against is exempt so an over-budget store
    // still serves the request that grew it.
    std::uint64_t oldest = ~std::uint64_t{0};
    auto victim = designs_.end();
    ScheduleMap::iterator victim_sched;  // victim's schedules.end(): the design
    const auto consider = [&](std::uint64_t used, DesignMap::iterator d,
                              ScheduleMap::iterator s) {
      if (used >= oldest) return;
      oldest = used;
      victim = d;
      victim_sched = s;
    };
    for (auto d = designs_.begin(); d != designs_.end(); ++d) {
      ScheduleMap& scheds = d->second.schedules;
      if (d->first != keep_design_id) {
        consider(d->second.last_used, d, scheds.end());
      }
      for (auto s = scheds.begin(); s != scheds.end(); ++s) {
        consider(s->second.last_used, d, s);
      }
    }
    if (victim == designs_.end()) break;  // only the protected design remains
    if (victim_sched == victim->second.schedules.end()) {
      unlink_design(victim, dead);
    } else {
      retire(victim_sched->second.ptr, dead);
      victim->second.schedules.erase(victim_sched);
    }
  }
}

DesignStoreStats DesignStore::stats() const {
  std::lock_guard lock(mutex_);
  DesignStoreStats s = counts_;
  s.designs = designs_.size();
  for (const auto& [id, d] : designs_) s.schedules += d.schedules.size();
  return s;
}

}  // namespace lwm::serve
