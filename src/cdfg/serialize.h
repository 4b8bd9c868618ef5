// serialize.h — plain-text CDFG interchange format.
//
// A line-oriented format suitable for versioning benchmark graphs and for
// shipping suspect designs to the watermark detector:
//
//   cdfg <name>
//   node <name> <op> [dmin[:dmax]]
//   edge <src-name> <dst-name> [data|control|temporal]
//   # comment
//
// A bare delay is an exact interval; `dmin:dmax` carries the bounded
// delay model's [d_min, d_max] (written only when the bounds differ, so
// pre-bounded files round-trip unchanged).
//
// Nodes must be declared before use; names may not contain whitespace.
// Round-trips exactly: write(read(s)) == s up to comments/blank lines.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cdfg/graph.h"
#include "io/parse_result.h"
#include "io/text.h"

namespace lwm::cdfg {

/// Writes `g` in the text format.  Edges are emitted in id order, so the
/// output is deterministic for a given construction sequence.
void write_text(const Graph& g, std::ostream& os);

/// Serializes to a string.
[[nodiscard]] std::string to_text(const Graph& g);

/// Parses the text format from text or a stream (see io::LineCursor):
///
///   parse_cdfg(text, "design.cdfg");
///   parse_cdfg(io::LineCursor(in, limits), path);  // past the read cap
///
/// Syntax errors, unknown ops, duplicate nodes, unknown endpoints, bad
/// delays, a total d_max past INT_MAX, unintended cycles, trailing
/// garbage and cursor failures all come back as a located Diagnostic.
/// Both sources accept the same language with identical diagnostics.
[[nodiscard]] io::ParseResult<Graph> parse_cdfg(
    io::LineCursor lines, std::string_view source_name = "<cdfg>");

}  // namespace lwm::cdfg
