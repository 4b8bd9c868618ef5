// text.h — line/token scanning with real source positions, and strict
// numeric conversion for untrusted tokens.
//
// The istream >> operators the seed parsers used lose two things this
// layer restores: the column of the token that failed, and strictness
// (">> int" on "3junk" happily yields 3 and leaves the garbage for the
// next extraction; std::stoi on "zz" throws).  LineCursor walks text or
// a stream into lines, LineLexer walks a line into whitespace-split
// tokens carrying 1-based columns, and the to_*() helpers convert a
// whole token or fail — no partial consumption, no exceptions.
// TextWriter is the writing side, shared by the design and schedule
// serializers.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "io/parse_result.h"

namespace lwm::io {

struct StreamLimits {
  /// Refill granularity.  Larger chunks amortize istream calls; the
  /// window never holds more than one chunk plus one partial line.
  std::size_t chunk_bytes = std::size_t{256} << 10;
  /// Cap on a single line.  A "line" this long is not a directive, it
  /// is a malformed or adversarial file — refuse it instead of buffering
  /// without bound (a stream has no whole-file cap, so the per-line cap
  /// is its only memory guard).
  std::size_t max_line_bytes = std::size_t{1} << 20;
};

/// Splits input into lines ('\n' separated; a trailing '\r' is stripped
/// so CRLF artifacts parse too).  Every parser takes one, so each format
/// has one parse function for both sources:
///
///   * text (implicit): lines are views into the caller's text, which
///     must outlive the cursor.  Nothing is copied and next() never
///     fails.
///   * a stream (explicit): read in chunks through a window holding at
///     most one partial line plus one chunk, so memory stays bounded at
///     any input size.  A view returned by next() is invalidated by the
///     following next().  A read failure or a line past
///     limits.max_line_bytes ends the input and sets error().
///
/// Line numbers and line contents are identical for both sources.
class LineCursor {
 public:
  LineCursor(std::string_view text) : text_(text) {}
  LineCursor(const std::string& text) : text_(text) {}
  LineCursor(const char* text) : text_(text) {}
  explicit LineCursor(std::istream& is, const StreamLimits& limits = {});

  /// Returns the next line without its terminator, or nullopt at end of
  /// input or on error.
  std::optional<std::string_view> next();

  /// The whole input of a text source, or nullopt for a stream: a
  /// parser may scan it once to presize before reading lines.
  [[nodiscard]] std::optional<std::string_view> text() const noexcept {
    if (is_ != nullptr) return std::nullopt;
    return text_;
  }

  /// 1-based number of the line most recently returned by next().
  [[nodiscard]] int line_number() const noexcept { return lineno_; }

  /// Set when next() stopped on a failure rather than end of input; the
  /// file is left empty for the parser to name the source.
  [[nodiscard]] const std::optional<Diagnostic>& error() const noexcept {
    return error_;
  }

 private:
  [[nodiscard]] std::string_view buffer() const noexcept {
    return is_ != nullptr ? std::string_view(window_) : text_;
  }
  bool refill();

  std::string_view text_;        ///< text source: the caller's input
  std::istream* is_ = nullptr;   ///< stream source, else null
  StreamLimits limits_;
  std::string window_;           ///< stream source: the unconsumed tail
  std::size_t pos_ = 0;          ///< start of the unconsumed region
  int lineno_ = 0;
  bool eof_ = false;
  std::optional<Diagnostic> error_;
};

/// A whitespace-delimited token and the 1-based column it starts at.
struct Token {
  std::string_view text;
  int column = 0;
};

/// Tokenizes one line; blanks are ' ' and '\t'.
class LineLexer {
 public:
  explicit LineLexer(std::string_view line) : line_(line) {}

  /// Next token, or nullopt when only whitespace remains.
  std::optional<Token> next() {
    while (pos_ < line_.size() && is_blank(line_[pos_])) ++pos_;
    if (pos_ >= line_.size()) return std::nullopt;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_blank(line_[pos_])) ++pos_;
    return Token{line_.substr(start, pos_ - start), static_cast<int>(start) + 1};
  }

  /// True when the rest of the line is blank — use to reject trailing
  /// garbage after a directive's last expected field.
  [[nodiscard]] bool at_end() const {
    for (std::size_t i = pos_; i < line_.size(); ++i) {
      if (!is_blank(line_[i])) return false;
    }
    return true;
  }

  /// 1-based column one past the last consumed character (where a
  /// "missing field" diagnostic should point).
  [[nodiscard]] int column() const noexcept { return static_cast<int>(pos_) + 1; }

 private:
  static constexpr bool is_blank(char c) { return c == ' ' || c == '\t'; }

  std::string_view line_;
  std::size_t pos_ = 0;
};

/// Builds a text artifact in one string: pieces are appended and
/// integers formatted by std::to_chars (no stream, no locale), so a
/// writer that reserves its size estimate up front allocates once.
class TextWriter {
 public:
  explicit TextWriter(std::size_t reserve_bytes) { out_.reserve(reserve_bytes); }

  TextWriter& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  TextWriter& operator<<(int v) {
    char buf[16];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

// Strict conversions: the whole token must be consumed, base 10 only,
// no leading whitespace or '+'.  Return nullopt on any deviation,
// including overflow.
[[nodiscard]] std::optional<int> to_int(std::string_view tok);
[[nodiscard]] std::optional<std::uint32_t> to_u32(std::string_view tok);
[[nodiscard]] std::optional<double> to_double(std::string_view tok);

}  // namespace lwm::io
