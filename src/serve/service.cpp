#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "crypto/signature.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sched/backend.h"
#include "sched/modulo.h"
#include "sched/schedule_io.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/records_io.h"
#include "wm/sched_constraints.h"

namespace lwm::serve {

namespace {

Frame error_frame(std::uint16_t code, io::Diagnostic diag) {
  LWM_COUNT("serve/errors", 1);
  return make_error_frame(ErrorInfo{code, std::move(diag)});
}

Frame error_text(std::uint16_t code, std::string message) {
  return error_frame(code, io::Diagnostic{"<serve>", 0, 0, std::move(message)});
}

/// The standard rejection for a payload that failed to decode: the
/// column carries the 1-based offset of the first unread byte, the same
/// convention decode_frame uses for header offsets.
Frame payload_error(MsgType type, const PayloadReader& r) {
  io::Diagnostic d;
  d.file = "<payload>";
  d.line = 0;
  d.column = static_cast<int>(r.pos()) + 1;
  d.message = "malformed payload for request type 0x" + [&] {
    const char* hex = "0123456789ABCDEF";
    const auto t = static_cast<std::uint8_t>(type);
    return std::string{hex[t >> 4], hex[t & 0xF]};
  }();
  return error_frame(kErrParse, std::move(d));
}

/// Embed/pc parameter block shared by both request types.
struct WmParams {
  std::uint64_t design_id = 0;
  std::string key;
  std::uint32_t marks = 0;
  std::uint32_t tau = 0;
  std::uint32_t k = 0;
  double epsilon = 0.0;
};

bool read_wm_params(PayloadReader& r, WmParams& p) {
  p.design_id = r.get_u64();
  p.key = std::string(r.get_str());
  p.marks = r.get_u32();
  p.tau = r.get_u32();
  p.k = r.get_u32();
  p.epsilon = r.get_f64();
  return r.complete();
}

/// nullptr when the parameters pass every bound; otherwise the error
/// frame to return.
const char* check_wm_params(const WmParams& p, const ServiceOptions& opts) {
  if (p.key.empty()) return "signature key must be non-empty";
  if (p.marks == 0 || p.marks > opts.max_marks) return "marks out of range";
  if (p.k == 0 || p.k > opts.max_k) return "k out of range";
  if (p.tau > opts.max_tau) return "tau out of range";
  if (!(p.epsilon > 0.0) || !(p.epsilon < 1.0)) {
    return "epsilon must lie in (0, 1)";
  }
  return nullptr;
}

wm::SchedWmOptions wm_options(const WmParams& p) {
  wm::SchedWmOptions o;
  o.domain.tau = static_cast<int>(p.tau);
  o.k = static_cast<int>(p.k);
  o.epsilon = p.epsilon;
  return o;
}

/// A resident design marked on a copy, with the P_c of its marks.
struct MarkedCopy {
  cdfg::Graph marked;
  std::vector<wm::SchedWatermark> marks;
  wm::PcEstimate pc;
};

/// What embed and pc share: read and check the parameters, find the
/// design, embed on a copy and estimate P_c through sched_pc_auto.
/// Returns the error frame to answer with, or nullopt with `out` filled,
/// so both request types report the same log10_pc bit for bit.
std::optional<Frame> mark_copy(const Frame& request, DesignStore& store,
                               const ServiceOptions& opts, MarkedCopy& out) {
  PayloadReader r(request.payload);
  WmParams p;
  if (!read_wm_params(r, p)) return payload_error(request.type, r);
  if (const char* bad = check_wm_params(p, opts)) {
    return error_text(kErrTooLarge, bad);
  }
  const auto design = store.find_design(p.design_id);
  if (!design) return error_text(kErrNotFound, "design not resident");
  if (design->plan.ops.empty()) {
    return error_text(kErrParse, "design has no executable operations");
  }

  // Embedding mutates; the resident graph is immutable, so mark a copy.
  // Copying preserves NodeIds, which keeps the resident PlanContext
  // valid for the copy (the overload's documented precondition).
  out.marked = design->graph;
  out.marks = wm::embed_local_watermarks_parallel(
      out.marked, crypto::Signature("serve-client", p.key),
      static_cast<int>(p.marks), wm_options(p), opts.pool, design->plan);

  // Flat windows are the resident specification timing (temporal edges
  // don't move them).  A marked graph's alternatives are periodic
  // schedules, counted at its recurrence-minimum II: resources are
  // unconstrained here, so RecMII is MinII, the interval an
  // unconstrained flow would achieve.
  const int ii =
      out.marked.has_token_edges() ? sched::recurrence_min_ii(out.marked) : 0;
  out.pc = wm::sched_pc_auto(out.marked, out.marks, ii, &design->plan.timing);
  return std::nullopt;
}

}  // namespace

Service::Service(ServiceOptions opts) : opts_(opts), store_(opts.store) {}

Frame Service::handle(const Frame& request) {
  LWM_SPAN("serve/request");
  LWM_COUNT("serve/requests", 1);
  LWM_HIST("serve/request_bytes", request.payload.size());
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    return error_text(kErrInternal,
                      std::string("unexpected server-side failure: ") + e.what());
  } catch (...) {
    return error_text(kErrInternal, "unexpected server-side failure");
  }
}

Frame Service::handle_bytes(std::string_view bytes) {
  const DecodeResult d = decode_frame(bytes);
  if (d.status == DecodeResult::Status::kError) {
    LWM_COUNT("serve/requests", 1);
    return error_frame(kErrBadFrame, d.diag);
  }
  if (d.status == DecodeResult::Status::kNeedMore) {
    LWM_COUNT("serve/requests", 1);
    return error_text(kErrBadFrame, "truncated frame");
  }
  return handle(d.frame);
}

Frame Service::dispatch(const Frame& request) {
  switch (request.type) {
    case MsgType::kPing: {
      LWM_COUNT("serve/req_ping", 1);
      if (!request.payload.empty()) {
        PayloadReader r(request.payload);
        return payload_error(request.type, r);
      }
      return Frame{MsgType::kPong, {}};
    }
    case MsgType::kLoadDesign:
      LWM_COUNT("serve/req_load_design", 1);
      return handle_load_design(request);
    case MsgType::kLoadSchedule:
      LWM_COUNT("serve/req_load_schedule", 1);
      return handle_load_schedule(request);
    case MsgType::kEmbed:
      LWM_COUNT("serve/req_embed", 1);
      return handle_embed(request);
    case MsgType::kDetect:
      LWM_COUNT("serve/req_detect", 1);
      return handle_detect(request);
    case MsgType::kPc:
      LWM_COUNT("serve/req_pc", 1);
      return handle_pc(request);
    case MsgType::kStats:
      LWM_COUNT("serve/req_stats", 1);
      return handle_stats(request);
    case MsgType::kEvict:
      LWM_COUNT("serve/req_evict", 1);
      return handle_evict(request);
    default:
      return error_text(kErrUnknownType,
                        "unknown or non-request message type");
  }
}

Frame Service::handle_load_design(const Frame& request) {
  PayloadReader r(request.payload);
  const std::string_view text = r.get_str();
  if (!r.complete()) return payload_error(request.type, r);

  bool already = false;
  auto loaded = store_.load_design(text, "<design>", &already);
  if (!loaded.ok()) return error_frame(kErrParse, loaded.diag());
  const std::shared_ptr<const StoredDesign> design = std::move(loaded).value();

  PayloadWriter w;
  w.put_u64(design->id);
  w.put_u32(static_cast<std::uint32_t>(design->graph.node_count()));
  w.put_u32(static_cast<std::uint32_t>(design->graph.operation_count()));
  w.put_u32(static_cast<std::uint32_t>(design->plan.timing.critical_path));
  w.put_u32(static_cast<std::uint32_t>(design->critical_path_min));
  w.put_u8(already ? 1 : 0);
  return Frame{MsgType::kDesignLoaded, std::move(w).take()};
}

Frame Service::handle_load_schedule(const Frame& request) {
  PayloadReader r(request.payload);
  const std::uint64_t design_id = r.get_u64();
  const std::string_view text = r.get_str();
  if (!r.complete()) return payload_error(request.type, r);

  const auto design = store_.find_design(design_id);
  if (!design) return error_text(kErrNotFound, "design not resident");
  auto loaded = store_.load_schedule(design, text, "<schedule>");
  if (!loaded.ok()) return error_frame(kErrParse, loaded.diag());
  const auto& sched = *std::move(loaded).value();

  PayloadWriter w;
  w.put_u64(sched.id);
  w.put_u32(static_cast<std::uint32_t>(sched.schedule.length(design->graph)));
  return Frame{MsgType::kScheduleLoaded, std::move(w).take()};
}

Frame Service::handle_embed(const Frame& request) {
  MarkedCopy mc;
  if (auto error = mark_copy(request, store_, opts_, mc)) {
    return std::move(*error);
  }

  wm::RecordArchive archive;
  std::uint32_t edges = 0;
  for (const wm::SchedWatermark& m : mc.marks) {
    edges += static_cast<std::uint32_t>(m.constraints.size());
    archive.sched.push_back(wm::SchedRecord::from(m, mc.marked));
  }

  // The constraint-honoring witness schedule a marked flow would
  // produce, returned so a client can round-trip straight into detect.
  // Dispatched by design shape: a marked graph (loop-carried token
  // edges) needs the periodic scheduler; an acyclic design takes the
  // "enumerate" witness, which is the ASAP schedule in closed form.
  // (The marked *graph* is not returned — after strip_temporal_edges it
  // equals the design the client already has.)
  const sched::BackendResult br = sched::schedule_with(
      mc.marked.has_token_edges() ? "modulo" : "enumerate", mc.marked);

  PayloadWriter w;
  w.put_u32(static_cast<std::uint32_t>(mc.marks.size()));
  w.put_u32(edges);
  w.put_f64(mc.pc.log10_pc);
  w.put_str(wm::to_text(archive));
  w.put_str(sched::schedule_to_text(mc.marked, br.schedule));
  return Frame{MsgType::kEmbedded, std::move(w).take()};
}

Frame Service::handle_detect(const Frame& request) {
  PayloadReader r(request.payload);
  const std::uint64_t design_id = r.get_u64();
  const std::uint64_t sched_id = r.get_u64();
  const std::string key(r.get_str());
  const std::string_view records_text = r.get_str();
  if (!r.complete()) return payload_error(request.type, r);
  if (key.empty()) return error_text(kErrParse, "signature key must be non-empty");

  const auto design = store_.find_design(design_id);
  if (!design) return error_text(kErrNotFound, "design not resident");
  const auto sched = store_.find_schedule(design_id, sched_id);
  if (!sched) return error_text(kErrNotFound, "schedule not resident");

  auto parsed = wm::parse_records(records_text, "<records>");
  if (!parsed.ok()) return error_frame(kErrParse, parsed.diag());
  const wm::RecordArchive archive = std::move(parsed).value();
  // Detect cost grows with each record's tau, so it takes embed's bound.
  if (std::ranges::any_of(archive.sched, [&](const wm::SchedRecord& rec) {
        return static_cast<std::uint32_t>(rec.domain.tau) > opts_.max_tau;
      })) {
    return error_text(kErrTooLarge, "tau out of range");
  }

  const crypto::Signature sig("serve-client", key);
  wm::ConeMemo* memo = archive.sched.empty()
                           ? nullptr
                           : &design->cone_memo(archive.sched.front().domain.tau);
  const std::vector<wm::SchedDetectionReport> reports =
      wm::detect_sched_watermarks(design->graph, sched->schedule, sig,
                                  archive.sched, opts_.pool, memo);

  PayloadWriter w;
  w.put_u32(static_cast<std::uint32_t>(reports.size()));
  for (const wm::SchedDetectionReport& rep : reports) {
    w.put_u8(rep.detected() ? 1 : 0);
    w.put_u32(static_cast<std::uint32_t>(rep.hits.size()));
    w.put_u32(rep.best_root.value);
  }
  w.put_u32(reports.empty() ? 0
                            : static_cast<std::uint32_t>(
                                  reports.front().roots_scanned));
  return Frame{MsgType::kDetected, std::move(w).take()};
}

Frame Service::handle_pc(const Frame& request) {
  MarkedCopy mc;
  if (auto error = mark_copy(request, store_, opts_, mc)) {
    return std::move(*error);
  }

  PayloadWriter w;
  w.put_f64(mc.pc.log10_pc);
  w.put_u8(mc.pc.exact ? 1 : 0);
  w.put_u8(mc.pc.degenerate ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(mc.marks.size()));
  return Frame{MsgType::kPcEstimated, std::move(w).take()};
}

Frame Service::handle_stats(const Frame& request) {
  if (!request.payload.empty()) {
    PayloadReader r(request.payload);
    return payload_error(request.type, r);
  }
  const DesignStoreStats s = store_.stats();
  std::ostringstream os;
  os << "{\"designs\":" << s.designs << ",\"schedules\":" << s.schedules
     << ",\"resident_bytes\":" << s.resident_bytes << ",\"hits\":" << s.hits
     << ",\"misses\":" << s.misses << ",\"evictions\":" << s.evictions
     << ",\"obs\":";
#if LWM_OBS_ENABLED
  os << obs::registry_json();
#else
  os << "{}";
#endif
  os << "}";

  PayloadWriter w;
  w.put_str(os.str());
  return Frame{MsgType::kStatsReport, std::move(w).take()};
}

Frame Service::handle_evict(const Frame& request) {
  PayloadReader r(request.payload);
  const std::uint64_t design_id = r.get_u64();
  if (!r.complete()) return payload_error(request.type, r);
  const bool existed = store_.evict_design(design_id);
  PayloadWriter w;
  w.put_u8(existed ? 1 : 0);
  return Frame{MsgType::kEvicted, std::move(w).take()};
}

}  // namespace lwm::serve
