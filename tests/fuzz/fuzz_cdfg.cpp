// Fuzz target: the CDFG text parser.  Any input must yield a Graph or a
// Diagnostic — an escaping exception or a sanitizer report is a crash —
// and the stream form must agree with the text form.  Every graph that
// parses is timed, so an arithmetic overflow past the parser's delay
// checks shows up under the ubsan build.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "parity.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace lwm;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const auto r = fuzz::parse_both_ways(
      text,
      [](io::LineCursor lines) {
        return cdfg::parse_cdfg(std::move(lines), "<fuzz>");
      },
      [](const cdfg::Graph& g) { return cdfg::to_text(g); });
  if (r.ok()) (void)cdfg::compute_timing(r.value());
  return 0;
}
