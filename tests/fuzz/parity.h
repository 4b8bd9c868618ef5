// parity.h — text/stream agreement for the parser fuzz targets and the
// parity tests.
//
// Every parser takes an io::LineCursor, so one parse function serves
// in-memory text and streams.  The two sources must accept the same
// language with the same diagnostics; these helpers parse an input both
// ways and render each outcome as comparable text.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "io/parse_result.h"
#include "io/text.h"

namespace lwm::fuzz {

/// A parse outcome as text: the value's serialization, or the
/// diagnostic's file, line, column and message.
template <typename T, typename Print>
std::string outcome(const io::ParseResult<T>& r, const Print& print) {
  return r.ok() ? "value\n" + print(r.value()) : "error " + r.diag().to_string();
}

/// Parses `text` through a stream cursor reading `chunk_bytes` at a time.
template <typename Parse>
auto parse_streamed(std::string_view text, std::size_t chunk_bytes,
                    const Parse& parse) {
  std::istringstream in{std::string(text)};
  io::StreamLimits limits;
  limits.chunk_bytes = chunk_bytes;
  return parse(io::LineCursor(in, limits));
}

/// Parses `text` from memory and from a stream of 3-byte chunks (so
/// lines straddle refills), aborts if the outcomes differ, and returns
/// the in-memory result.
template <typename Parse, typename Print>
auto parse_both_ways(std::string_view text, const Parse& parse,
                     const Print& print) {
  auto in_memory = parse(io::LineCursor(text));
  const std::string want = outcome(in_memory, print);
  const std::string got = outcome(parse_streamed(text, 3, parse), print);
  if (got != want) {
    std::fprintf(stderr, "text/stream disagreement\ntext:   %s\nstream: %s\n",
                 want.c_str(), got.c_str());
    std::abort();
  }
  return in_memory;
}

}  // namespace lwm::fuzz
