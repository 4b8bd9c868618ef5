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
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

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
  std::optional<Token> next();

  /// True when the rest of the line is blank — use to reject trailing
  /// garbage after a directive's last expected field.
  [[nodiscard]] bool at_end() const;

  /// 1-based column one past the last consumed character (where a
  /// "missing field" diagnostic should point).
  [[nodiscard]] int column() const noexcept { return static_cast<int>(pos_) + 1; }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

// Strict conversions: the whole token must be consumed, base 10 only,
// no leading whitespace or '+'.  Return nullopt on any deviation,
// including overflow.
[[nodiscard]] std::optional<int> to_int(std::string_view tok);
[[nodiscard]] std::optional<std::uint32_t> to_u32(std::string_view tok);
[[nodiscard]] std::optional<double> to_double(std::string_view tok);

}  // namespace lwm::io
