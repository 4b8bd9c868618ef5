// service.h — the transport-independent request handler.
//
// One Service instance owns the DesignStore and answers decoded frames;
// the socket server (server.h), the bulk scanner (`lwm-scan` without
// `--socket`), the integration tests, and the fuzz target all drive the
// same handle() — the protocol has exactly one semantics implementation
// just as it has one codec.
//
// Contract: handle() NEVER throws and never crashes on any input frame.
// Every failure — unknown type, malformed payload, malformed embedded
// artifact, missing design, out-of-bounds parameter, unexpected
// exception — becomes a kError frame carrying an ErrorCode plus the
// same io::Diagnostic shape the text parsers emit.  handle() is safe to
// call from many threads at once (the store holds its one mutex only to
// probe and link entries, never to parse; everything else is per-request).
#pragma once

#include <cstdint>
#include <string_view>

#include "serve/design_store.h"
#include "serve/frame.h"

namespace lwm::exec {
class ThreadPool;
}

namespace lwm::serve {

struct ServiceOptions {
  /// Pool the heavy requests (embed planning waves, detector root scan)
  /// fan out over; nullptr = serial.  Not owned.
  exec::ThreadPool* pool = nullptr;
  DesignStoreOptions store;

  // Parameter bounds enforced on embed/pc requests (kErrTooLarge).
  std::uint32_t max_marks = 4096;
  std::uint32_t max_k = 64;
  std::uint32_t max_tau = 32;
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});

  /// Answers one request frame.  Never throws.
  [[nodiscard]] Frame handle(const Frame& request);

  /// Decode-then-handle convenience for callers holding raw bytes (the
  /// fuzz target and `lwm-scan`): a frame that fails to decode gets the
  /// kErrBadFrame error frame the server would send.  Partial frames
  /// (kNeedMore) are reported as kErrBadFrame too — this entry point is
  /// for whole captured frames, not for stream reassembly.
  [[nodiscard]] Frame handle_bytes(std::string_view bytes);

  [[nodiscard]] DesignStore& store() noexcept { return store_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept { return opts_; }

 private:
  [[nodiscard]] Frame dispatch(const Frame& request);
  [[nodiscard]] Frame handle_load_design(const Frame& request);
  [[nodiscard]] Frame handle_load_schedule(const Frame& request);
  [[nodiscard]] Frame handle_embed(const Frame& request);
  [[nodiscard]] Frame handle_detect(const Frame& request);
  [[nodiscard]] Frame handle_pc(const Frame& request);
  [[nodiscard]] Frame handle_stats(const Frame& request);
  [[nodiscard]] Frame handle_evict(const Frame& request);

  ServiceOptions opts_;
  DesignStore store_;
};

}  // namespace lwm::serve
