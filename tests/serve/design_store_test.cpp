// DesignStore invariants (DESIGN.md §11): content addressing (same
// bytes ⇒ same hash ⇒ same shared instance), immutability of resident
// state, eviction that never invalidates in-flight readers, and the
// LRU budget that always keeps the just-inserted design.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "dfglib/synth.h"
#include "forged_schedule_id.h"
#include "obs/obs.h"
#include "sched/schedule_io.h"
#include "serve/design_store.h"

namespace lwm::serve {
namespace {

constexpr std::string_view kTinyDesign =
    "cdfg tiny\n"
    "node in1 input\n"
    "node a add\n"
    "node m mul 3\n"
    "node out1 output\n"
    "edge in1 a\n"
    "edge a m\n"
    "edge m out1\n";

constexpr std::string_view kTinySchedule =
    "schedule tiny\nat in1 0\nat a 1\nat m 2\nat out1 5\n";

/// kTinyDesign under another graph name: different bytes (so a different
/// design id), same nodes (so kTinySchedule parses against it).
std::string tiny_variant(int i) {
  std::string text(kTinyDesign);
  text.replace(0, std::string_view("cdfg tiny").size(),
               "cdfg tiny" + std::to_string(i));
  return text;
}

std::string design_text(int seed, int ops = 120) {
  dfglib::MegaConfig cfg;
  cfg.name = "store_" + std::to_string(seed);
  cfg.operations = ops;
  cfg.width = 8;
  cfg.seed = static_cast<std::uint64_t>(seed);
  return cdfg::to_text(dfglib::make_mega_design(cfg));
}

TEST(ContentHashTest, PinsFnv1a64) {
  // Standard FNV-1a 64 vectors: the content address must be stable
  // across processes and platforms forever (ids are client-visible).
  EXPECT_EQ(content_hash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(content_hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(content_hash("foobar"), 0x85944171f73967e8ull);
}

TEST(DesignStoreTest, SameBytesSameInstance) {
  DesignStore store;
  auto a = store.load_design(kTinyDesign);
  auto b = store.load_design(kTinyDesign);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());  // shared, not re-parsed
  EXPECT_EQ(a.value()->id, content_hash(kTinyDesign));
  const DesignStoreStats s = store.stats();
  EXPECT_EQ(s.designs, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(DesignStoreTest, DifferentBytesDifferentInstance) {
  DesignStore store;
  auto a = store.load_design(design_text(1));
  auto b = store.load_design(design_text(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->id, b.value()->id);
  EXPECT_NE(a.value().get(), b.value().get());
}

TEST(DesignStoreTest, MalformedTextIsDiagnosedNotStored) {
  DesignStore store;
  auto r = store.load_design("cdfg broken\nnode ??", "<suspect>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().file, "<suspect>");
  EXPECT_EQ(store.stats().designs, 0u);
}

TEST(DesignStoreTest, CyclicPrecedenceIsDiagnosedNotACrash) {
  // parse_cdfg accepts the edge list; the cycle only surfaces when the
  // store builds timing state.  That failure must come back as a
  // Diagnostic, not an escaped exception (the fuzz target relies on it).
  constexpr std::string_view cyclic =
      "cdfg cyc\n"
      "node a add\n"
      "node b add\n"
      "edge a b\n"
      "edge b a\n";
  DesignStore store;
  auto r = store.load_design(cyclic, "<cyclic>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().file, "<cyclic>");
  EXPECT_EQ(store.stats().designs, 0u);
}

TEST(DesignStoreTest, ResidentStateIsBuiltOnce) {
  DesignStore store;
  auto r = store.load_design(design_text(3));
  ASSERT_TRUE(r.ok());
  const auto& d = *r.value();
  // plan.timing is the one resident specification timing: exactly what
  // a from-scratch pass over the graph produces.
  const cdfg::TimingInfo fresh =
      cdfg::compute_timing(d.graph, -1, cdfg::EdgeFilter::specification());
  EXPECT_GT(d.plan.timing.critical_path, 0);
  EXPECT_EQ(d.plan.timing.critical_path, fresh.critical_path);
  EXPECT_EQ(d.plan.timing.latency, fresh.latency);
  EXPECT_EQ(d.plan.timing.asap, fresh.asap);
  EXPECT_EQ(d.plan.timing.alap, fresh.alap);
  // Exact delays: the optimistic bound collapses onto the critical path.
  ASSERT_FALSE(d.graph.has_bounded_delays());
  EXPECT_EQ(d.critical_path_min, d.plan.timing.critical_path);
  EXPECT_FALSE(d.plan.ops.empty());
}

TEST(DesignStoreTest, BoundedDelayDesignCarriesItsOptimisticCriticalPath) {
  // `dmin:dmax` delays: the resident critical_path_min is the bounded
  // analysis's, strictly below the worst-case critical path.
  constexpr std::string_view bounded =
      "cdfg bounded\n"
      "node in1 input\n"
      "node a add 1:2\n"
      "node m mul 2:5\n"
      "node b add 1\n"
      "node out1 output\n"
      "edge in1 a\n"
      "edge a m\n"
      "edge in1 b\n"
      "edge m out1\n"
      "edge b out1\n";
  DesignStore store;
  auto r = store.load_design(bounded, "<bounded>");
  ASSERT_TRUE(r.ok()) << r.diag().message;
  const auto& d = *r.value();
  ASSERT_TRUE(d.graph.has_bounded_delays());
  const cdfg::BoundedTimingInfo t = cdfg::compute_timing_bounded(
      d.graph, -1, cdfg::EdgeFilter::specification());
  EXPECT_EQ(d.critical_path_min, t.critical_path_min);
  EXPECT_EQ(d.plan.timing.critical_path, t.pess.critical_path);
  EXPECT_EQ(d.plan.timing.critical_path, 7);
  EXPECT_EQ(d.critical_path_min, 3);
  EXPECT_LT(d.critical_path_min, d.plan.timing.critical_path);
}

TEST(DesignStoreTest, SchedulesAreKeyedByDesignAndText) {
  DesignStore store;
  auto d = store.load_design(kTinyDesign);
  ASSERT_TRUE(d.ok());
  const std::string sched_text =
      "schedule tiny\nat in1 0\nat a 1\nat m 2\nat out1 5\n";
  auto s = store.load_schedule(d.value(), sched_text);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->id, content_hash(sched_text));
  EXPECT_EQ(store.find_schedule(d.value()->id, s.value()->id).get(),
            s.value().get());
  EXPECT_EQ(store.find_schedule(d.value()->id + 1, s.value()->id), nullptr);
}

TEST(DesignStoreTest, ForgedScheduleKeyNeverAliasesAnotherDesign) {
  DesignStore store;
  auto a = store.load_design(kTinyDesign);
  auto b = store.load_design(design_text(1));
  ASSERT_TRUE(a.ok() && b.ok());
  auto s = store.load_schedule(
      a.value(), "schedule tiny\nat in1 0\nat a 1\nat m 2\nat out1 5\n");
  ASSERT_TRUE(s.ok());
  const std::uint64_t forged = test_support::forged_schedule_id(
      a.value()->id, s.value()->id, b.value()->id);
  // B's graph must never be checked against A's schedule.
  EXPECT_EQ(store.find_schedule(b.value()->id, forged), nullptr);
  EXPECT_EQ(store.find_schedule(a.value()->id, s.value()->id).get(),
            s.value().get());
}

TEST(DesignStoreTest, EvictDropsDesignAndItsSchedules) {
  DesignStore store;
  auto d = store.load_design(kTinyDesign);
  ASSERT_TRUE(d.ok());
  auto s = store.load_schedule(d.value(),
                               "schedule tiny\nat in1 0\nat a 1\nat m 2\nat out1 5\n");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(store.evict_design(d.value()->id));
  EXPECT_EQ(store.find_design(d.value()->id), nullptr);
  EXPECT_EQ(store.find_schedule(d.value()->id, s.value()->id), nullptr);
  EXPECT_FALSE(store.evict_design(d.value()->id));  // already gone
  EXPECT_EQ(store.stats().resident_bytes, 0u);
}

TEST(DesignStoreTest, ScheduleForEvictedDesignIsNeverResident) {
  // A load_schedule that lost a race with evict_design: the caller still
  // holds the design, but the store no longer does, so the schedule must
  // not become resident (it would pin the design's graph and plan while
  // the budget no longer counts them).
  DesignStore store;
  auto d = store.load_design(kTinyDesign);
  ASSERT_TRUE(d.ok());
  const std::shared_ptr<const StoredDesign> held = d.value();
  ASSERT_TRUE(store.evict_design(held->id));
  auto s = store.load_schedule(held, kTinySchedule);
  ASSERT_TRUE(s.ok());  // the parse still answers the request
  EXPECT_EQ(s.value()->design.get(), held.get());
  const DesignStoreStats st = store.stats();
  EXPECT_EQ(st.designs, 0u);
  EXPECT_EQ(st.schedules, 0u);
  EXPECT_EQ(st.resident_bytes, 0u);
  EXPECT_EQ(store.find_schedule(held->id, s.value()->id), nullptr);
}

TEST(DesignStoreTest, OneScheduleTextUnderTwoDesignsIsTwoEntries) {
  DesignStore store;
  auto a = store.load_design(kTinyDesign);
  auto b = store.load_design(tiny_variant(2));
  ASSERT_TRUE(a.ok() && b.ok());
  const std::uint64_t da = a.value()->id, db = b.value()->id;
  ASSERT_NE(da, db);
  auto sa = store.load_schedule(a.value(), kTinySchedule);
  ASSERT_TRUE(sa.ok());
  // Only A loaded the text: B does not resolve it.
  EXPECT_EQ(store.find_schedule(db, sa.value()->id), nullptr);

  auto sb = store.load_schedule(b.value(), kTinySchedule);
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa.value()->id, sb.value()->id);  // same text, same id
  EXPECT_NE(sa.value().get(), sb.value().get());
  EXPECT_EQ(sb.value()->design.get(), b.value().get());
  EXPECT_EQ(store.stats().schedules, 2u);

  // Evicting A takes only A's entry; B's stays findable.
  ASSERT_TRUE(store.evict_design(da));
  EXPECT_EQ(store.find_schedule(da, sa.value()->id), nullptr);
  EXPECT_EQ(store.find_schedule(db, sb.value()->id).get(), sb.value().get());
  const DesignStoreStats st = store.stats();
  EXPECT_EQ(st.designs, 1u);
  EXPECT_EQ(st.schedules, 1u);
  EXPECT_EQ(st.resident_bytes,
            tiny_variant(2).size() + kTinySchedule.size());
}

TEST(DesignStoreTest, ColdLoadRecordsOneBuildSpan) {
#if LWM_OBS_ENABLED
  obs::SpanSite& build =
      obs::Registry::instance().span_site("serve/store_build");
  DesignStore store;
  const std::string text = design_text(5);
  std::uint64_t before = build.count();
  ASSERT_TRUE(store.load_design(text).ok());
  EXPECT_EQ(build.count() - before, 1u);
  before = build.count();
  ASSERT_TRUE(store.load_design(text).ok());  // warm: no build
  EXPECT_EQ(build.count() - before, 0u);
#else
  GTEST_SKIP() << "span counting needs LWM_OBS=ON";
#endif
}

TEST(DesignStoreTest, EvictionNeverInvalidatesInFlightReaders) {
  DesignStore store;
  auto d = store.load_design(design_text(4));
  ASSERT_TRUE(d.ok());
  const std::shared_ptr<const StoredDesign> held = d.value();
  ASSERT_TRUE(store.evict_design(held->id));
  // The held pointer keeps the design (graph + plan) alive and fully
  // usable after eviction — the no-use-after-evict guarantee.
  EXPECT_GT(held->graph.operation_count(), 0u);
  EXPECT_GT(held->plan.timing.critical_path, 0);
  EXPECT_FALSE(held->plan.ops.empty());
}

TEST(DesignStoreTest, BudgetEvictsLeastRecentlyUsed) {
  DesignStoreOptions opts;
  const std::string a = design_text(10), b = design_text(11),
                    c = design_text(12);
  opts.max_resident_bytes = a.size() + b.size() + c.size() / 2;
  DesignStore store(opts);
  auto ra = store.load_design(a);
  auto rb = store.load_design(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Touch `a` so `b` is the LRU victim when `c` overflows the budget.
  EXPECT_NE(store.find_design(ra.value()->id), nullptr);
  auto rc = store.load_design(c);
  ASSERT_TRUE(rc.ok());
  EXPECT_NE(store.find_design(rc.value()->id), nullptr)
      << "just-inserted design must always stay";
  EXPECT_EQ(store.find_design(rb.value()->id), nullptr) << "LRU evicted";
  EXPECT_GE(store.stats().evictions, 1u);
}

TEST(DesignStoreTest, SingleOverBudgetDesignStaysResident) {
  DesignStoreOptions opts;
  opts.max_resident_bytes = 16;  // smaller than any design text
  DesignStore store(opts);
  auto r = store.load_design(kTinyDesign);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(store.find_design(r.value()->id), nullptr);
}

TEST(DesignStoreTest, MarkedGraphDesignsAreResidentCitizens) {
  // A marked graph (token back-edge) parses, validates, and builds its
  // resident timing state on the acyclic skeleton; only token-free
  // cycles are rejected.
  constexpr std::string_view marked =
      "cdfg marked\n"
      "node in1 input\n"
      "node a add\n"
      "node m mul 3\n"
      "node out1 output\n"
      "edge in1 a\n"
      "edge a m\n"
      "edge m out1\n"
      "edge m a 2\n";
  DesignStore store;
  auto r = store.load_design(marked, "<marked>");
  ASSERT_TRUE(r.ok()) << r.diag().message;
  EXPECT_TRUE(r.value()->graph.has_token_edges());
  EXPECT_GT(r.value()->plan.timing.critical_path, 0);
}

TEST(DesignStoreTest, EvictionAccountingSurvivesConcurrentChurn) {
  // Property test for the budget accounting: many threads concurrently
  // insert a mixed population (acyclic mega designs, marked graphs,
  // rejected token-free cycles) and evict at random.  Afterwards the
  // atomically-maintained resident_bytes must equal the recount over
  // the designs still findable, and the eviction counter must cover
  // exactly the inserts that are gone.
  std::vector<std::string> texts;
  for (int s = 0; s < 6; ++s) texts.push_back(design_text(100 + s));
  for (int s = 0; s < 6; ++s) {
    texts.push_back(
        "cdfg marked" + std::to_string(s) +
        "\nnode in1 input\nnode a add\nnode m mul 3\nnode out1 output\n"
        "edge in1 a\nedge a m\nedge m out1\nedge m a " +
        std::to_string(s + 1) + "\n");
  }
  const std::string rejected =
      "cdfg cyc\nnode a add\nnode b add\nedge a b\nedge b a\n";

  DesignStoreOptions opts;
  opts.max_resident_bytes = texts[0].size() * 4;  // forces LRU pressure
  DesignStore store(opts);

  constexpr int kThreads = 8;
  constexpr int kIters = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::minstd_rand rng(static_cast<unsigned>(97 * t + 13));
      for (int i = 0; i < kIters; ++i) {
        const auto pick = rng() % (texts.size() + 2);
        if (pick < texts.size()) {
          auto r = store.load_design(texts[pick]);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(r.value()->text_bytes, texts[pick].size());
        } else if (pick == texts.size()) {
          auto r = store.load_design(rejected);
          EXPECT_FALSE(r.ok());  // token-free cycle: diagnosed, not stored
        } else {
          (void)store.evict_design(
              content_hash(texts[rng() % texts.size()]));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const DesignStoreStats s = store.stats();
  std::size_t recount_bytes = 0;
  std::size_t recount_designs = 0;
  for (const std::string& text : texts) {
    if (const auto d = store.find_design(content_hash(text))) {
      recount_bytes += d->text_bytes;
      ++recount_designs;
    }
  }
  EXPECT_EQ(s.designs, recount_designs);
  EXPECT_EQ(s.resident_bytes, recount_bytes);
  EXPECT_EQ(s.schedules, 0u);
  // Every insert either is still resident or was evicted (explicitly or
  // by the budget): misses counts the true inserts, so the books balance.
  EXPECT_EQ(s.misses, recount_designs + s.evictions);
  EXPECT_EQ(store.find_design(content_hash(rejected)), nullptr);
}

TEST(DesignStoreTest, ScheduleAccountingSurvivesConcurrentChurn) {
  // The churn property with schedules in the mix: threads load designs,
  // load and find schedules against them, and evict designs, under a
  // budget tight enough that designs and single schedules are both LRU
  // victims.  Afterwards resident_bytes must equal the recount over
  // every design and schedule still findable, every found schedule must
  // belong to the design it was asked under, and the books must balance.
  std::vector<std::string> designs;
  for (int s = 0; s < 3; ++s) designs.push_back(design_text(300 + s));
  const std::size_t first_tiny = designs.size();
  for (int i = 0; i < 4; ++i) designs.push_back(tiny_variant(i));
  std::vector<std::string> schedules;
  for (int v = 0; v < 4; ++v) {
    schedules.push_back("# variant " + std::to_string(v) + "\n" +
                        std::string(kTinySchedule));
  }

  DesignStoreOptions opts;
  opts.max_resident_bytes = designs[0].size() * 2;
  DesignStore store(opts);

  constexpr int kThreads = 8;
  constexpr int kIters = 96;
  std::atomic<std::uint64_t> lookup_misses{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::minstd_rand rng(static_cast<unsigned>(31 * t + 7));
      for (int i = 0; i < kIters; ++i) {
        const std::string& tiny =
            designs[first_tiny + rng() % (designs.size() - first_tiny)];
        const std::string& sched = schedules[rng() % schedules.size()];
        switch (rng() % 4) {
          case 0: {
            const std::string& text = designs[rng() % designs.size()];
            ASSERT_TRUE(store.load_design(text).ok());
            break;
          }
          case 1: {
            auto d = store.load_design(tiny);
            ASSERT_TRUE(d.ok());
            auto s = store.load_schedule(d.value(), sched);
            ASSERT_TRUE(s.ok());
            EXPECT_EQ(s.value()->design->id, d.value()->id);
            break;
          }
          case 2: {
            const auto s =
                store.find_schedule(content_hash(tiny), content_hash(sched));
            if (!s) {
              lookup_misses.fetch_add(1, std::memory_order_relaxed);
            } else {
              EXPECT_EQ(s->design->id, content_hash(tiny));
              EXPECT_EQ(s->id, content_hash(sched));
            }
            break;
          }
          default:
            (void)store.evict_design(
                content_hash(designs[rng() % designs.size()]));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const DesignStoreStats s = store.stats();
  std::size_t recount_bytes = 0;
  std::size_t recount_designs = 0;
  std::size_t recount_schedules = 0;
  for (const std::string& text : designs) {
    const auto d = store.find_design(content_hash(text));
    if (!d) continue;
    recount_bytes += d->text_bytes;
    ++recount_designs;
    for (const std::string& sched : schedules) {
      if (const auto r = store.find_schedule(d->id, content_hash(sched))) {
        recount_bytes += r->text_bytes;
        ++recount_schedules;
      }
    }
  }
  EXPECT_EQ(s.designs, recount_designs);
  EXPECT_EQ(s.schedules, recount_schedules);
  EXPECT_EQ(s.resident_bytes, recount_bytes);
  EXPECT_GT(s.evictions, 0u) << "the budget must have tripped";
  // misses = inserts + lookups that found nothing; every insert is still
  // resident or was evicted.
  EXPECT_EQ(s.misses, recount_designs + recount_schedules + s.evictions +
                          lookup_misses.load());
}

TEST(DesignStoreTest, ConcurrentSameBytesConvergeToOneInstance) {
  DesignStore store;
  const std::string text = design_text(20, 200);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const StoredDesign>> seen(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto r = store.load_design(text);
      ASSERT_TRUE(r.ok());
      seen[t] = r.value();
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].get(), seen[0].get());  // first insert won the race
  }
  EXPECT_EQ(store.stats().designs, 1u);
}

}  // namespace
}  // namespace lwm::serve
