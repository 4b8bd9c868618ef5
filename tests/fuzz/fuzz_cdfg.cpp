// Fuzz target: the CDFG text parser.  Any input must yield a Graph or a
// Diagnostic — an escaping exception or a sanitizer report is a crash —
// and the stream form must agree with the text form.  Every graph that
// parses is timed by compute_timing_bounded(), whose pessimistic band is
// compute_timing()'s, so an arithmetic overflow past the parser's delay
// checks shows up under the ubsan build.  The two bands must bracket:
// the optimistic (d_min) band may only widen the pessimistic windows and
// shorten the critical path.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
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
  if (!r.ok()) return 0;
  const cdfg::Graph& g = r.value();
  const cdfg::BoundedTimingInfo t = cdfg::compute_timing_bounded(g);
  if (t.critical_path_min > t.pess.critical_path) std::abort();
  for (cdfg::NodeId n : g.nodes()) {
    if (t.asap_min[n.value] > t.pess.asap[n.value] ||
        t.pess.alap[n.value] > t.alap_min[n.value]) {
      std::abort();
    }
  }
  return 0;
}
