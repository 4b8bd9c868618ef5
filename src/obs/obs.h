// obs.h — low-overhead, thread-safe observability: named counters,
// histograms, and RAII scoped spans.
//
// The macro surface is the whole contract for instrumented code:
//
//   LWM_COUNT("bnb/nodes", n);   // monotonic counter += n
//   LWM_HIST("fds/stale_set", stale.size());   // log2-bucketed histogram
//   LWM_SPAN("fds/step");        // RAII span: wall time until scope exit
//
// Each macro resolves its name to a registry entry once (a thread-safe
// static local at the call site) and then touches only a per-thread
// shard of cache-line-padded atomics, so the steady-state cost of a
// counter is one relaxed fetch_add on an uncontended line.  Aggregation
// (export.h) sums the shards on demand; nothing is locked on the hot
// path.
//
// Spans nest through a thread-local current-span id.  `lwm::exec`
// propagates that id through `ThreadPool::submit`, so a span opened
// inside a pool task reports the *submitting* span as its parent even
// though it runs on another thread — traces show the logical call tree,
// not the thread the scheduler happened to pick.  When tracing is
// enabled (`Registry::enable_tracing`, or any bench's `--trace` flag),
// every closed span additionally appends a TraceEvent to a per-thread
// log that export.h serializes in Chrome trace_event format.
//
// Compiled out: when the build defines LWM_OBS_ENABLED=0 (CMake option
// LWM_OBS=OFF), every macro expands to `((void)0)` — no argument is
// evaluated, nothing in namespace lwm::obs is even declared, and
// tests/obs/check_obs_off.sh asserts no lwm::obs symbol survives in the
// object code.
#pragma once

#if !defined(LWM_OBS_ENABLED)
#define LWM_OBS_ENABLED 0
#endif

#if LWM_OBS_ENABLED

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lwm::obs {

/// Shards per metric.  Thread slots map onto shards modulo this, so
/// unrelated threads rarely share a line; collisions stay correct
/// because shards are atomics.
inline constexpr std::size_t kShards = 16;

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

/// Monotonic named counter, summed over shards on demand.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const CounterShard& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void reset() noexcept {
    for (CounterShard& s : shards_) {
      s.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::string name_;
  CounterShard shards_[kShards];
};

/// Log2-bucketed histogram of unsigned samples: bucket b holds values
/// with bit-width b (bucket 0 = value 0).  Tracks count/sum/max exactly;
/// the buckets give the shape without per-sample allocation.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width(v) in [0, 64]

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void record(std::uint64_t v) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t buckets[kBuckets] = {};

    /// Tallies one sample locally (no atomics) for a later batch record.
    void add(std::uint64_t v) noexcept;
  };
  /// Merges a locally tallied batch: one shard update for many samples.
  void record(const Snapshot& batch) noexcept;
  [[nodiscard]] Snapshot snapshot() const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
  };
  std::string name_;
  Shard shards_[kShards];
};

/// Aggregated wall time of one span call site name: count + total ns.
class SpanSite {
 public:
  explicit SpanSite(std::string name) : name_(std::move(name)) {}

  void record(std::uint64_t dur_ns) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t total_ns() const noexcept;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> ns{0};
  };
  std::string name_;
  Shard shards_[kShards];
};

/// One closed span, as recorded in a thread's trace log.  `name` points
/// at the registry-interned span-site name and stays valid for the
/// process lifetime.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;  // since the registry epoch
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  // registry thread index, not an OS id
};

/// Process-wide metric registry.  Lookups lock; handles returned by the
/// lookups are lock-free to update and live for the process lifetime.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const char* name);
  Histogram& histogram(const char* name);
  SpanSite& span_site(const char* name);

  /// Turns per-span trace logging on/off (counters and span aggregates
  /// are always maintained; only TraceEvent capture is gated).
  void enable_tracing(bool on) noexcept {
    tracing_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool tracing_enabled() const noexcept {
    return tracing_.load(std::memory_order_acquire);
  }

  /// Snapshot of every thread's trace log, in (tid, start) order.
  [[nodiscard]] std::vector<TraceEvent> trace_events() const;

  /// Events discarded because a thread log hit its cap.
  [[nodiscard]] std::uint64_t dropped_events() const noexcept;

  /// Zeroes every counter/histogram/span aggregate and clears the trace
  /// logs.  Test hook: callers must quiesce their own threads first.
  void reset();

  /// Nanoseconds since the registry was first touched (steady clock).
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  // Export plumbing (export.cpp): sorted snapshots of the registries.
  [[nodiscard]] std::vector<const Counter*> counters() const;
  [[nodiscard]] std::vector<const Histogram*> histograms() const;
  [[nodiscard]] std::vector<const SpanSite*> span_sites() const;

  // Internal (obs.cpp): per-thread registration and span-id allocation.
  struct Impl;
  [[nodiscard]] Impl& impl() noexcept { return *impl_; }

 private:
  Registry();
  Impl* impl_;  // never freed: metrics outlive static destruction order
  std::atomic<bool> tracing_{false};
};

/// Id of the innermost span open on this thread (0 = none).
[[nodiscard]] std::uint64_t current_span() noexcept;

/// Overrides this thread's current-span id for a scope — how a pool task
/// inherits the span that was open where it was *submitted*.
class TaskParent {
 public:
  explicit TaskParent(std::uint64_t parent) noexcept;
  ~TaskParent();
  TaskParent(const TaskParent&) = delete;
  TaskParent& operator=(const TaskParent&) = delete;

 private:
  std::uint64_t saved_;
};

/// RAII span: wall time from construction to destruction, recorded into
/// the site aggregate and (when tracing) the thread's trace log.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t start_ns_;
};

}  // namespace lwm::obs

#define LWM_OBS_CONCAT_(a, b) a##b
#define LWM_OBS_CONCAT(a, b) LWM_OBS_CONCAT_(a, b)

#define LWM_COUNT(name, v)                                                 \
  do {                                                                     \
    static ::lwm::obs::Counter& LWM_OBS_CONCAT(lwm_obs_ctr_, __LINE__) =   \
        ::lwm::obs::Registry::instance().counter(name);                    \
    LWM_OBS_CONCAT(lwm_obs_ctr_, __LINE__)                                 \
        .add(static_cast<std::uint64_t>(v));                               \
  } while (0)

#define LWM_HIST(name, v)                                                  \
  do {                                                                     \
    static ::lwm::obs::Histogram& LWM_OBS_CONCAT(lwm_obs_hst_, __LINE__) = \
        ::lwm::obs::Registry::instance().histogram(name);                  \
    LWM_OBS_CONCAT(lwm_obs_hst_, __LINE__)                                 \
        .record(static_cast<std::uint64_t>(v));                            \
  } while (0)

#define LWM_SPAN(name)                                                     \
  static ::lwm::obs::SpanSite& LWM_OBS_CONCAT(lwm_obs_site_, __LINE__) =   \
      ::lwm::obs::Registry::instance().span_site(name);                    \
  ::lwm::obs::ScopedSpan LWM_OBS_CONCAT(lwm_obs_span_, __LINE__)(          \
      LWM_OBS_CONCAT(lwm_obs_site_, __LINE__))

#else  // !LWM_OBS_ENABLED — nothing declared, nothing evaluated.

#define LWM_COUNT(name, v) ((void)0)
#define LWM_HIST(name, v) ((void)0)
#define LWM_SPAN(name) ((void)0)

#endif  // LWM_OBS_ENABLED
