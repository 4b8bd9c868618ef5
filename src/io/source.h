// source.h — the one front door untrusted files come through.
//
// A parser consumes a LineCursor over text that arrived via read_file
// (or was built in-process, which is trusted by construction), or over
// a stream the caller opened.  The front door enforces the only global
// policy the parsers themselves cannot: a size limit, so a
// multi-gigabyte "records file" is refused before it is buffered, and
// I/O failures become located Diagnostics instead of half-read garbage.
// Inputs past the cap are parsed from a stream, whose line window keeps
// memory bounded instead.
#pragma once

#include <cstddef>
#include <string>

#include "io/parse_result.h"

namespace lwm::io {

struct ReadLimits {
  /// Hard cap on accepted input size.  The largest legitimate artifact
  /// in the experiment suite (a PGP-scale CDFG) is under 100 KiB; 16 MiB
  /// leaves two orders of magnitude of headroom.
  std::size_t max_bytes = std::size_t{16} << 20;
};

/// Opens and reads a whole file, refusing input past limits.max_bytes
/// rather than buffering it; open failure, read failure, and oversize
/// all come back as Diagnostics naming the path (line 0).
[[nodiscard]] ParseResult<std::string> read_file(const std::string& path,
                                                 const ReadLimits& limits = {});

}  // namespace lwm::io
