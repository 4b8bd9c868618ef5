// Text/stream parity for the one line cursor and the four parsers.
//
// io::LineCursor reads either text in memory or a stream through a
// chunked window; every parser takes one.  The two sources must split
// lines identically (same line numbers, same '\r' handling, no phantom
// empty line after a trailing '\n'), every format must parse each fuzz
// corpus file to the same value or the same file:line:col diagnostic at
// any chunk size, and cursor failures (a read error, an over-long line)
// must surface as diagnostics naming the source in every format.  A CDFG
// bigger than the whole-file read cap must stream-parse byte-exactly
// while read_file refuses it with a message that names the cap and the
// stream form.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ios>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "cdfg/serialize.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"
#include "io/source.h"
#include "io/text.h"
#include "parity.h"
#include "sched/list_sched.h"
#include "sched/schedule_io.h"
#include "tmatch/library_io.h"
#include "wm/records_io.h"
#include "wm/sched_constraints.h"

namespace lwm::io {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> stream_lines(const std::string& text,
                                      const StreamLimits& limits = {}) {
  std::istringstream in(text);
  LineCursor cursor(in, limits);
  std::vector<std::string> out;
  while (const auto line = cursor.next()) out.emplace_back(*line);
  EXPECT_FALSE(cursor.error().has_value());
  return out;
}

std::vector<std::string> memory_lines(const std::string& text) {
  LineCursor cursor(text);
  std::vector<std::string> out;
  while (const auto line = cursor.next()) out.emplace_back(*line);
  EXPECT_FALSE(cursor.error().has_value());
  return out;
}

TEST(StreamLineCursorTest, MatchesLineCursorOnEdgeCases) {
  const std::string cases[] = {
      "",
      "\n",
      "one line no newline",
      "a\nb\nc\n",
      "a\nb\nc",
      "\n\n\n",
      "crlf\r\nlines\r\n",
      "mixed\r\nunix\nlast\r",
  };
  for (const std::string& text : cases) {
    EXPECT_EQ(stream_lines(text), memory_lines(text)) << '"' << text << '"';
    for (const std::size_t chunk : {1, 2, 7}) {
      StreamLimits limits;
      limits.chunk_bytes = chunk;
      EXPECT_EQ(stream_lines(text, limits), memory_lines(text))
          << '"' << text << "\" chunk " << chunk;
    }
  }
}

TEST(StreamLineCursorTest, LineNumbersMatchLineCursor) {
  const std::string text = "a\nb\n\nd";
  std::istringstream in(text);
  LineCursor stream(in);
  LineCursor memory(text);
  while (true) {
    const auto s = stream.next();
    const auto m = memory.next();
    ASSERT_EQ(s.has_value(), m.has_value());
    if (!s) break;
    EXPECT_EQ(*s, *m);
    EXPECT_EQ(stream.line_number(), memory.line_number());
  }
}

TEST(StreamLineCursorTest, LinesSpanningChunkBoundaries) {
  // Tiny chunks force every line to straddle at least one refill.
  StreamLimits limits;
  limits.chunk_bytes = 7;
  std::string text;
  std::vector<std::string> want;
  for (int i = 0; i < 50; ++i) {
    want.push_back("line-" + std::to_string(i) + std::string(i % 13, 'x'));
    text += want.back() + "\n";
  }
  EXPECT_EQ(stream_lines(text, limits), want);
}

TEST(StreamLineCursorTest, OverLongLineIsAnError) {
  StreamLimits limits;
  limits.chunk_bytes = 16;
  limits.max_line_bytes = 32;
  std::istringstream in("short\n" + std::string(100, 'y') + "\nafter\n");
  LineCursor cursor(in, limits);
  ASSERT_TRUE(cursor.next().has_value());
  EXPECT_FALSE(cursor.next().has_value());
  ASSERT_TRUE(cursor.error().has_value());
  EXPECT_NE(cursor.error()->message.find("32"), std::string::npos)
      << cursor.error()->message;
  EXPECT_EQ(cursor.error()->line, 2);
}

TEST(StreamParseTest, AcceptsSameLanguageAsInMemoryParser) {
  const cdfg::Graph g =
      dfglib::make_layered_dag("parity", 200, 8, dfglib::OpMix{}, 5);
  const std::string text = cdfg::to_text(g);
  std::istringstream in(text);
  auto streamed = cdfg::parse_cdfg(LineCursor(in), "parity.cdfg");
  auto memory = cdfg::parse_cdfg(text, "parity.cdfg");
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(memory.ok());
  EXPECT_EQ(cdfg::to_text(streamed.value()), cdfg::to_text(memory.value()));
  EXPECT_EQ(cdfg::to_text(streamed.value()), text);
}

TEST(StreamParseTest, DiagnosticsMatchInMemoryParser) {
  const std::string broken = "cdfg bad\nnode n0 add\nedge n0 -> n9 data\n";
  std::istringstream in(broken);
  const auto streamed = cdfg::parse_cdfg(LineCursor(in), "bad.cdfg");
  const auto memory = cdfg::parse_cdfg(broken, "bad.cdfg");
  ASSERT_FALSE(streamed.ok());
  ASSERT_FALSE(memory.ok());
  EXPECT_EQ(streamed.diag().to_string(), memory.diag().to_string());
}

TEST(StreamParseTest, MissingHeaderAndOpenFailure) {
  std::istringstream empty("");
  EXPECT_FALSE(cdfg::parse_cdfg(LineCursor(empty), "empty.cdfg").ok());
  std::ifstream missing_file("/nonexistent/x.cdfg");
  const auto missing = cdfg::parse_cdfg(LineCursor(missing_file), "x.cdfg");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.diag().file, "x.cdfg");
  EXPECT_NE(missing.diag().message.find("cannot open"), std::string::npos)
      << missing.diag().to_string();
}

TEST(StreamParseTest, OversizeFileStreamsButRefusesWholeFileRead) {
  // A graph whose serialization exceeds the 16 MiB read_file cap: the
  // whole-file path must refuse it (naming the cap and the stream form),
  // the stream path must round-trip it byte-exactly.
  dfglib::MegaConfig cfg;
  cfg.name = "big";
  cfg.operations = 260'000;
  cfg.width = 64;
  cfg.seed = 99;
  const cdfg::Graph g = dfglib::make_mega_design(cfg);
  const std::string text = cdfg::to_text(g);
  ASSERT_GT(text.size(), ReadLimits{}.max_bytes);

  const std::string path =
      (fs::temp_directory_path() / "lwm_big_stream_test.cdfg").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }

  const auto refused = read_file(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.diag().message.find("16777216"), std::string::npos)
      << refused.diag().message;
  EXPECT_NE(refused.diag().message.find("io::LineCursor(in"),
            std::string::npos)
      << refused.diag().message;

  std::ifstream in(path, std::ios::binary);
  auto streamed = cdfg::parse_cdfg(LineCursor(in), path);
  ASSERT_TRUE(streamed.ok()) << streamed.diag().to_string();
  EXPECT_EQ(cdfg::to_text(streamed.value()), text);
  std::remove(path.c_str());
}

// ------------------------------------------------ all four formats

/// One text format: its parse function (bound to a source name) and the
/// serializer that renders a parsed value for comparison.
struct Format {
  std::string name;  ///< tests/fuzz/corpus/<name>
  std::function<ParseResult<std::string>(LineCursor)> parse;
};

template <typename Parse, typename Print>
Format make_format(std::string name, Parse parse, Print print) {
  return Format{std::move(name),
                [parse, print](LineCursor lines) -> ParseResult<std::string> {
                  auto r = parse(std::move(lines));
                  if (!r.ok()) return r.diag();
                  return print(r.value());
                }};
}

/// The graph the schedule corpus parses against (node names in1, a, b,
/// out1), as in the schedule fuzz target.
const cdfg::Graph& schedule_fixture() {
  static const cdfg::Graph g = cdfg::parse_cdfg(
      "cdfg fuzz-fixture\nnode in1 input\nnode a add\nnode b mul\n"
      "node out1 output\nedge in1 a\nedge a b\nedge b out1\n").value();
  return g;
}

Format cdfg_format() {
  return make_format(
      "cdfg",
      [](LineCursor lines) { return cdfg::parse_cdfg(std::move(lines), "f"); },
      [](const cdfg::Graph& g) { return cdfg::to_text(g); });
}

Format schedule_format(const cdfg::Graph& g) {
  return make_format(
      "schedule",
      [&g](LineCursor lines) {
        return sched::parse_schedule(g, std::move(lines), "f");
      },
      [&g](const sched::Schedule& s) { return sched::schedule_to_text(g, s); });
}

Format records_format() {
  return make_format(
      "records",
      [](LineCursor lines) { return wm::parse_records(std::move(lines), "f"); },
      [](const wm::RecordArchive& a) { return wm::to_text(a); });
}

Format library_format() {
  return make_format(
      "library",
      [](LineCursor lines) {
        return tmatch::parse_library(std::move(lines), "f");
      },
      [](const tmatch::TemplateLibrary& lib) {
        return tmatch::library_to_text(lib);
      });
}

std::vector<Format> all_formats() {
  return {cdfg_format(), schedule_format(schedule_fixture()), records_format(),
          library_format()};
}

/// Chunk sizes every parity check covers: pathological single bytes,
/// lines straddling refills, and the default window.
const std::size_t kChunks[] = {1, 2, 7, StreamLimits{}.chunk_bytes};

/// Parses `text` from memory and from a stream at every chunk size and
/// requires the same value or the same diagnostic each time.
void expect_parity(const Format& f, const std::string& text,
                   const std::string& label) {
  const auto print = [](const std::string& s) { return s; };
  const std::string want = fuzz::outcome(f.parse(LineCursor(text)), print);
  for (const std::size_t chunk : kChunks) {
    EXPECT_EQ(fuzz::outcome(fuzz::parse_streamed(text, chunk, f.parse), print),
              want)
        << f.name << " " << label << " chunk " << chunk;
  }
}

std::string slurp(const fs::path& path) {
  auto bytes = read_file(path.string());
  EXPECT_TRUE(bytes.ok()) << bytes.diag().to_string();
  return bytes.ok() ? bytes.value() : std::string();
}

TEST(ParityTest, EveryCorpusFileParsesTheSameFromTextAndStream) {
  for (const Format& f : all_formats()) {
    const fs::path dir = fs::path(LWM_FUZZ_CORPUS_ROOT) / f.name;
    int files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      expect_parity(f, slurp(entry.path()), entry.path().filename().string());
      ++files;
    }
    EXPECT_GT(files, 0) << dir;
  }
}

TEST(ParityTest, KernelAndMegaDesignRoundTripFromTextAndStream) {
  dfglib::MegaConfig cfg;
  cfg.name = "mega2k";
  cfg.operations = 2'000;
  cfg.width = 32;
  cfg.seed = 7;
  const crypto::Signature sig{"parity", "parity-key"};
  for (const cdfg::Graph& g :
       {dfglib::make_fft(16), dfglib::make_mega_design(cfg)}) {
    const std::string cdfg_text = cdfg::to_text(g);
    expect_parity(cdfg_format(), cdfg_text, g.name());

    const std::string sched_text =
        sched::schedule_to_text(g, sched::list_schedule(g));
    expect_parity(schedule_format(g), sched_text, g.name());

    wm::SchedWmOptions opts;
    opts.domain.tau = 4;
    opts.k = 3;
    cdfg::Graph marked = g;  // embedding adds temporal edges
    wm::RecordArchive archive;
    for (const auto& m : wm::embed_local_watermarks(marked, sig, 4, opts)) {
      archive.sched.push_back(wm::SchedRecord::from(m, marked));
    }
    ASSERT_FALSE(archive.sched.empty()) << g.name();
    expect_parity(records_format(), wm::to_text(archive), g.name());

    // And each round trip is exact.
    const auto print = [](const std::string& s) { return s; };
    EXPECT_EQ(fuzz::outcome(cdfg_format().parse(cdfg_text), print),
              "value\n" + cdfg_text);
    EXPECT_EQ(fuzz::outcome(schedule_format(g).parse(sched_text), print),
              "value\n" + sched_text);
  }
  const std::string lib_text =
      tmatch::library_to_text(tmatch::TemplateLibrary::standard());
  expect_parity(library_format(), lib_text, "standard");
}

/// Serves `data` truncated to `fail_after` bytes, then fails the read
/// (the istream turns the exception into badbit).
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(const std::string& data, std::size_t fail_after)
      : data_(data.substr(0, fail_after)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    throw std::ios_base::failure("injected read failure");
  }

 private:
  std::string data_;
};

/// A valid input per format, for the failure-injection tests.
std::string valid_text(const Format& f) {
  return slurp(fs::path(LWM_FUZZ_CORPUS_ROOT) / f.name / "valid-roundtrip");
}

TEST(ParityTest, ReadFailureIsADiagnosticInEveryFormat) {
  for (const Format& f : all_formats()) {
    const std::string text = valid_text(f);
    ASSERT_FALSE(text.empty()) << f.name;
    for (const std::size_t fail_after :
         {std::size_t{0}, std::size_t{5}, text.size() / 2, text.size() - 1}) {
      for (const std::size_t chunk : kChunks) {
        FailingBuf buf(text, fail_after);
        std::istream in(&buf);
        StreamLimits limits;
        limits.chunk_bytes = chunk;
        const auto r = f.parse(LineCursor(in, limits));
        ASSERT_FALSE(r.ok()) << f.name << " fail after " << fail_after
                             << " chunk " << chunk;
        EXPECT_EQ(r.diag().file, "f") << f.name;
        EXPECT_EQ(r.diag().message, "read error") << r.diag().to_string();
      }
    }
  }
}

TEST(ParityTest, OverLongLineIsADiagnosticInEveryFormat) {
  for (const Format& f : all_formats()) {
    const std::string valid = valid_text(f);
    const std::string first = valid.substr(0, valid.find('\n'));
    for (const std::string& text :
         {std::string(100, 'y') + "\n", first + "\n" + std::string(100, 'y')}) {
      std::istringstream in(text);
      StreamLimits limits;
      limits.chunk_bytes = 16;
      limits.max_line_bytes = 32;
      const auto r = f.parse(LineCursor(in, limits));
      ASSERT_FALSE(r.ok()) << f.name;
      EXPECT_EQ(r.diag().file, "f") << f.name;
      EXPECT_EQ(r.diag().message, "line exceeds 32-byte limit")
          << r.diag().to_string();
      EXPECT_EQ(r.diag().line, text.front() == 'y' ? 1 : 2) << f.name;
    }
  }
}

}  // namespace
}  // namespace lwm::io
