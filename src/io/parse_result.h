// parse_result.h — the structured error model every text parser speaks.
//
// Artifacts cross the trust boundary as text: CDFG localities, watermark
// records, schedules, template libraries arrive from other parties (or an
// adversary) and must never crash the detector.  Every parser therefore
// returns a ParseResult<T>: either the parsed value or a Diagnostic
// locating the first error (source name, 1-based line, 1-based column,
// message).  Parsers never throw.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace lwm::io {

/// Where and why a parse failed.  `line`/`column` are 1-based; 0 means
/// "whole input" / "whole line" (e.g. a missing header or a truncated
/// file has no single column to blame).
struct Diagnostic {
  std::string file;  ///< source name; "<string>" for in-memory input
  int line = 0;
  int column = 0;
  std::string message;

  /// Human-readable, single-line rendering:
  ///   "<file> line L, col C: message"  (col omitted when 0, line when 0)
  [[nodiscard]] std::string to_string() const;
};

/// Value-or-diagnostic. Implicitly constructible from either, so parse
/// cores just `return value;` or `return Diagnostic{...};`.
template <typename T>
class [[nodiscard]] ParseResult {
 public:
  ParseResult(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  ParseResult(Diagnostic d) : state_(std::in_place_index<1>, std::move(d)) {}

  [[nodiscard]] bool ok() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  /// Precondition: ok().
  [[nodiscard]] const T& value() const& { return std::get<0>(state_); }
  [[nodiscard]] T&& value() && { return std::get<0>(std::move(state_)); }

  /// Precondition: !ok().
  [[nodiscard]] const Diagnostic& diag() const { return std::get<1>(state_); }

 private:
  std::variant<T, Diagnostic> state_;
};

}  // namespace lwm::io
