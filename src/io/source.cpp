#include "io/source.h"

#include <fstream>

namespace lwm::io {

ParseResult<std::string> read_file(const std::string& path,
                                   const ReadLimits& limits) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Diagnostic{path, 0, 0, "cannot open file"};
  }
  std::string out;
  char buf[64 * 1024];
  while (in) {
    in.read(buf, sizeof buf);
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got > limits.max_bytes - out.size()) {
      return Diagnostic{
          path, 0, 0,
          "input exceeds the " + std::to_string(limits.max_bytes) +
              "-byte whole-file cap (io::ReadLimits::max_bytes); parse large "
              "files from a stream instead (e.g. "
              "cdfg::parse_cdfg(io::LineCursor(in, limits), path)), which "
              "reads a line window instead of buffering the file"};
    }
    out.append(buf, got);
  }
  if (in.bad()) {
    return Diagnostic{path, 0, 0, "read error"};
  }
  return out;
}

}  // namespace lwm::io
