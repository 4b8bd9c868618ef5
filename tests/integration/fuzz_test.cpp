// Parser robustness: mutated/truncated serialized artifacts must either
// parse to something valid or come back as a Diagnostic — never throw,
// crash, hang, or corrupt memory.  (Run under ASan/UBSan builds for full
// value; in a plain build these still catch logic-level non-termination
// and escaping exceptions.)
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "cdfg/serialize.h"
#include "cdfg/analysis.h"
#include "cdfg/validate.h"
#include "dfglib/iir4.h"
#include "dfglib/synth.h"
#include "sched/list_sched.h"
#include "sched/schedule_io.h"
#include "wm/records_io.h"
#include "wm/sched_constraints.h"

namespace lwm {
namespace {

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }

template <typename ParseFn>
void expect_graceful(const std::string& text, ParseFn&& parse) {
  EXPECT_NO_THROW(parse(text)) << "input:\n" << text;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, TruncatedCdfgNeverCrashes) {
  const std::string text = cdfg::to_text(dfglib::iir4_parallel());
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::size_t cut = rng() % (text.size() + 1);
    expect_graceful(text.substr(0, cut),
                    [](const std::string& t) { (void)cdfg::parse_cdfg(t); });
  }
}

TEST_P(FuzzSeeds, MutatedCdfgNeverCrashes) {
  const std::string original = cdfg::to_text(dfglib::iir4_parallel());
  std::mt19937_64 rng(GetParam());
  const std::string charset = "abcxyz 019\n\t/#=";
  for (int i = 0; i < 50; ++i) {
    std::string text = original;
    const int mutations = 1 + static_cast<int>(rng() % 8);
    for (int m = 0; m < mutations; ++m) {
      text[rng() % text.size()] = charset[rng() % charset.size()];
    }
    expect_graceful(text,
                    [](const std::string& t) { (void)cdfg::parse_cdfg(t); });
  }
}

TEST_P(FuzzSeeds, MutatedScheduleNeverCrashes) {
  const cdfg::Graph g = dfglib::iir4_parallel();
  const std::string original =
      sched::schedule_to_text(g, sched::list_schedule(g));
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    std::string text = original;
    const std::size_t cut = rng() % (text.size() + 1);
    text = text.substr(0, cut) + "\nat bogus 1 2 3";
    expect_graceful(text, [&g](const std::string& t) {
      (void)sched::parse_schedule(g, t);
    });
  }
}

TEST_P(FuzzSeeds, MutatedRecordsNeverCrash) {
  cdfg::Graph g = dfglib::make_dsp_design("fuzz", 12, 120, 601);
  wm::SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.epsilon = 0.3;
  wm::RecordArchive archive;
  for (const auto& m : wm::embed_local_watermarks(g, alice(), 2, opts)) {
    archive.sched.push_back(wm::SchedRecord::from(m, g));
  }
  const std::string original = wm::to_text(archive);
  std::mt19937_64 rng(GetParam());
  const std::string charset = "abc 019\n=-/";
  for (int i = 0; i < 50; ++i) {
    std::string text = original;
    const int mutations = 1 + static_cast<int>(rng() % 6);
    for (int m = 0; m < mutations; ++m) {
      text[rng() % text.size()] = charset[rng() % charset.size()];
    }
    expect_graceful(text, [](const std::string& t) {
      (void)wm::parse_records(t);
    });
  }
}

TEST_P(FuzzSeeds, ParsedGarbageStillUsableOrRejected) {
  // When a mutated design happens to parse, downstream analysis must not
  // crash either.
  const std::string original = cdfg::to_text(dfglib::iir4_parallel());
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 25; ++i) {
    std::string text = original;
    text[rng() % text.size()] = static_cast<char>('a' + rng() % 26);
    auto parsed = cdfg::parse_cdfg(text);
    if (!parsed.ok()) continue;
    const cdfg::Graph g = std::move(parsed).value();
    (void)cdfg::validate(g);
    // The parser refuses token-free cycles, so timing cannot throw.
    EXPECT_NO_THROW((void)cdfg::critical_path_length(g)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lwm
