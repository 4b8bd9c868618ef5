// Fuzz target: the watermark-records parser — the artifact most likely
// to be adversarial, since the accused party supplies it in a dispute.
// The stream form must agree with the text form.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "parity.h"
#include "wm/records_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace lwm;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  (void)fuzz::parse_both_ways(
      text,
      [](io::LineCursor lines) {
        return wm::parse_records(std::move(lines), "<fuzz>");
      },
      [](const wm::RecordArchive& a) { return wm::to_text(a); });
  return 0;
}
