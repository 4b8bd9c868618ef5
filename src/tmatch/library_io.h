// library_io.h — text interchange for template libraries.
//
// Adopters bring their own module libraries (the paper's experiments use
// HYPER's); this format lets a library live next to the design files:
//
//   templates v1
//   template <name> <area>
//   op <kind> [child-index ...]      (preorder; ops[0] is the root)
#pragma once

#include <string>
#include <string_view>

#include "io/parse_result.h"
#include "io/text.h"
#include "tmatch/template_lib.h"

namespace lwm::tmatch {

[[nodiscard]] std::string library_to_text(const TemplateLibrary& lib);

/// Parses from text or a stream (see io::LineCursor).  Malformed input,
/// invalid template trees, bad areas/child indices, trailing garbage and
/// cursor failures come back as a located Diagnostic.
[[nodiscard]] io::ParseResult<TemplateLibrary> parse_library(
    io::LineCursor lines, std::string_view source_name = "<library>");

}  // namespace lwm::tmatch
