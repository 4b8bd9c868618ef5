// Fuzz target: the schedule parser.  Schedules parse against a graph
// (names must resolve), so the harness binds a small fixed design whose
// node names (in1, a, b, out1) the corpus can hit or miss.  The stream
// form must agree with the text form.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "cdfg/serialize.h"
#include "parity.h"
#include "sched/schedule_io.h"

namespace {

const lwm::cdfg::Graph& fixed_graph() {
  static const lwm::cdfg::Graph g = lwm::cdfg::parse_cdfg(
      "cdfg fuzz-fixture\n"
      "node in1 input\n"
      "node a add\n"
      "node b mul\n"
      "node out1 output\n"
      "edge in1 a\n"
      "edge a b\n"
      "edge b out1\n").value();
  return g;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace lwm;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  (void)fuzz::parse_both_ways(
      text,
      [](io::LineCursor lines) {
        return sched::parse_schedule(fixed_graph(), std::move(lines), "<fuzz>");
      },
      [](const sched::Schedule& s) {
        return sched::schedule_to_text(fixed_graph(), s);
      });
  return 0;
}
