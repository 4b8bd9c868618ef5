// Unit tests for the lwm::obs observability layer: counter aggregation
// across threads, histogram bucketing, span aggregates, the registry
// JSON dump, and a golden-file check of the Chrome trace writer on a
// fixed event list.  Built only when LWM_OBS=ON (the OFF build declares
// nothing to test — tests/obs/check_obs_off.sh covers that side).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"

namespace {

using lwm::obs::Registry;
using lwm::obs::TraceEvent;

TEST(ObsCounter, AggregatesAcrossEightThreads) {
  Registry::instance().reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIncrements; ++i) {
        LWM_COUNT("test/counter", 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Registry::instance().counter("test/counter").total(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(ObsCounter, AddWithValueAndReset) {
  Registry::instance().reset();
  LWM_COUNT("test/weighted", 5);
  LWM_COUNT("test/weighted", 37);
  auto& c = Registry::instance().counter("test/weighted");
  EXPECT_EQ(c.total(), 42u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(ObsHistogram, BucketsByBitWidth) {
  Registry::instance().reset();
  LWM_HIST("test/hist", 0);   // bucket 0
  LWM_HIST("test/hist", 1);   // bucket 1
  LWM_HIST("test/hist", 2);   // bucket 2
  LWM_HIST("test/hist", 3);   // bucket 2
  LWM_HIST("test/hist", 1024);  // bucket 11
  const auto s = Registry::instance().histogram("test/hist").snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1030u);
  EXPECT_EQ(s.max, 1024u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[11], 1u);
}

TEST(ObsHistogram, MaxIsExactUnderThreads) {
  Registry::instance().reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 1000; ++i) {
        LWM_HIST("test/hist_max", static_cast<std::uint64_t>(t) * 1000 + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto s = Registry::instance().histogram("test/hist_max").snapshot();
  EXPECT_EQ(s.count, 8000u);
  EXPECT_EQ(s.max, 7999u);
}

TEST(ObsHistogram, BatchMergeEqualsPerSampleRecords) {
  Registry::instance().reset();
  const std::vector<std::uint64_t> samples = {0, 1, 3, 3, 17, 1024, 5};
  lwm::obs::Histogram::Snapshot batch;
  for (const std::uint64_t v : samples) {
    LWM_HIST("test/hist_each", v);
    batch.add(v);
  }
  lwm::obs::Histogram& merged_hist = Registry::instance().histogram("test/hist_batch");
  merged_hist.record(batch);
  merged_hist.record(lwm::obs::Histogram::Snapshot{});
  const auto each = Registry::instance().histogram("test/hist_each").snapshot();
  const auto merged = merged_hist.snapshot();
  EXPECT_EQ(merged.count, each.count);
  EXPECT_EQ(merged.sum, each.sum);
  EXPECT_EQ(merged.max, each.max);
  for (int b = 0; b < lwm::obs::Histogram::kBuckets; ++b) {
    EXPECT_EQ(merged.buckets[b], each.buckets[b]) << "bucket " << b;
  }
}

TEST(ObsSpan, RecordsCountAndNonNegativeTime) {
  Registry::instance().reset();
  for (int i = 0; i < 3; ++i) {
    LWM_SPAN("test/span");
  }
  auto& site = Registry::instance().span_site("test/span");
  EXPECT_EQ(site.count(), 3u);
}

TEST(ObsSpan, NestsViaCurrentSpan) {
  Registry::instance().reset();
  EXPECT_EQ(lwm::obs::current_span(), 0u);
  {
    LWM_SPAN("test/outer");
    const std::uint64_t outer = lwm::obs::current_span();
    EXPECT_NE(outer, 0u);
    {
      LWM_SPAN("test/inner");
      EXPECT_NE(lwm::obs::current_span(), outer);
    }
    EXPECT_EQ(lwm::obs::current_span(), outer);
  }
  EXPECT_EQ(lwm::obs::current_span(), 0u);
}

TEST(ObsRegistry, JsonDumpHasAllSections) {
  Registry::instance().reset();
  LWM_COUNT("json/counter", 7);
  LWM_HIST("json/hist", 9);
  { LWM_SPAN("json/span"); }
  const std::string dump = lwm::obs::registry_json();
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"json/counter\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"histograms\""), std::string::npos);
  EXPECT_NE(dump.find("\"json/hist\""), std::string::npos);
  EXPECT_NE(dump.find("\"log2_buckets\""), std::string::npos);
  EXPECT_NE(dump.find("\"spans\""), std::string::npos);
  EXPECT_NE(dump.find("\"json/span\""), std::string::npos);
}

TEST(ObsRegistry, JsonDumpReportsTraceDrops) {
  Registry::instance().reset();
  EXPECT_NE(lwm::obs::registry_json().find("\"trace_dropped\":0}"),
            std::string::npos);
  // One span past the per-thread cap of 2^18 trace events.
  Registry::instance().enable_tracing(true);
  for (int i = 0; i < (1 << 18) + 1; ++i) {
    LWM_SPAN("test/flood");
  }
  Registry::instance().enable_tracing(false);
  EXPECT_EQ(Registry::instance().trace_events().size(), std::size_t{1} << 18);
  EXPECT_NE(lwm::obs::registry_json().find("\"trace_dropped\":1}"),
            std::string::npos);
  Registry::instance().reset();
}

TEST(ObsRegistry, TracingOffRecordsNoEvents) {
  Registry::instance().reset();
  Registry::instance().enable_tracing(false);
  { LWM_SPAN("test/untraced"); }
  EXPECT_TRUE(Registry::instance().trace_events().empty());
}

TEST(ObsRegistry, TracingOnRecordsEvents) {
  Registry::instance().reset();
  Registry::instance().enable_tracing(true);
  { LWM_SPAN("test/traced"); }
  Registry::instance().enable_tracing(false);
  const std::vector<TraceEvent> events = Registry::instance().trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test/traced");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_GE(events[0].dur_ns, 0);
}

// Golden check: a fixed event list must serialize to exactly this trace.
// Catches accidental format drift — Perfetto/chrome://tracing parse this
// structure, so the shape is a public contract.
TEST(ObsExport, ChromeTraceGolden) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{"a", 1, 0, 1000, 500000, 0});
  events.push_back(TraceEvent{"b", 2, 1, 251000, 1500, 1});

  std::ostringstream os;
  lwm::obs::write_trace_events(os, events);

  const std::string golden =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"lwm\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"a\",\"cat\":\"lwm\","
      "\"ts\":1.000,\"dur\":500.000,\"args\":{\"id\":1,\"parent\":0}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"b\",\"cat\":\"lwm\","
      "\"ts\":251.000,\"dur\":1.500,\"args\":{\"id\":2,\"parent\":1}},\n"
      "{\"ph\":\"s\",\"pid\":1,\"tid\":0,\"name\":\"submit\",\"cat\":\"flow\","
      "\"id\":2,\"ts\":251.000},\n"
      "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":1,\"name\":\"submit\","
      "\"cat\":\"flow\",\"id\":2,\"ts\":251.000}\n"
      "]}\n";
  EXPECT_EQ(os.str(), golden);
}

}  // namespace
