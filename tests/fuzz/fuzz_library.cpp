// Fuzz target: the template-library parser (including the tree-shape
// validation TemplateLibrary::add performs on accepted syntax).  The
// stream form must agree with the text form.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "parity.h"
#include "tmatch/library_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace lwm;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  (void)fuzz::parse_both_ways(
      text,
      [](io::LineCursor lines) {
        return tmatch::parse_library(std::move(lines), "<fuzz>");
      },
      [](const tmatch::TemplateLibrary& lib) {
        return tmatch::library_to_text(lib);
      });
  return 0;
}
