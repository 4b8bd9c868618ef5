// Protocol semantics: a round-trip for every request type through
// Service::handle, plus the error-frame contract — every malformed or
// out-of-bounds input is answered with a typed kError frame, never an
// exception or a crash.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "crypto/signature.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "forged_schedule_id.h"
#include "obs/obs.h"
#include "serve/frame.h"
#include "sched/modulo.h"
#include "serve/service.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

namespace lwm::serve {
namespace {

cdfg::Graph fixture_graph(int ops = 300, int width = 12) {
  dfglib::MegaConfig cfg;
  cfg.name = "svc";
  cfg.operations = ops;
  cfg.width = width;
  cfg.seed = 7;
  return dfglib::make_mega_design(cfg);
}

std::string fixture_text(int ops = 300) {
  return cdfg::to_text(fixture_graph(ops));
}

Frame load_design_frame(std::string_view text) {
  PayloadWriter w;
  w.put_str(text);
  return Frame{MsgType::kLoadDesign, std::move(w).take()};
}

Frame embed_frame(std::uint64_t design_id, std::string_view key,
                  std::uint32_t marks = 3, std::uint32_t tau = 8,
                  std::uint32_t k = 3, double epsilon = 0.25) {
  PayloadWriter w;
  w.put_u64(design_id);
  w.put_str(key);
  w.put_u32(marks);
  w.put_u32(tau);
  w.put_u32(k);
  w.put_f64(epsilon);
  return Frame{MsgType::kEmbed, std::move(w).take()};
}

std::uint16_t error_code(const Frame& f) {
  ErrorInfo info;
  EXPECT_EQ(f.type, MsgType::kError);
  EXPECT_TRUE(parse_error_frame(f, info));
  return info.code;
}

struct LoadedFixture {
  std::uint64_t design_id = 0;
  std::uint64_t sched_id = 0;
  std::string records;
};

/// Loads the fixture design, embeds, and makes the returned marked
/// schedule resident — the state every detect test starts from.
LoadedFixture load_and_embed(Service& service, std::string_view key) {
  LoadedFixture fx;
  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  EXPECT_EQ(loaded.type, MsgType::kDesignLoaded);
  PayloadReader lr(loaded.payload);
  fx.design_id = lr.get_u64();

  const Frame embedded = service.handle(embed_frame(fx.design_id, key));
  EXPECT_EQ(embedded.type, MsgType::kEmbedded);
  PayloadReader er(embedded.payload);
  const std::uint32_t marks = er.get_u32();
  (void)er.get_u32();  // edges
  (void)er.get_f64();  // log10_pc
  fx.records = std::string(er.get_str());
  const std::string sched_text(er.get_str());
  EXPECT_TRUE(er.complete());
  EXPECT_GT(marks, 0u);

  PayloadWriter w;
  w.put_u64(fx.design_id);
  w.put_str(sched_text);
  const Frame sched =
      service.handle(Frame{MsgType::kLoadSchedule, std::move(w).take()});
  EXPECT_EQ(sched.type, MsgType::kScheduleLoaded);
  PayloadReader sr(sched.payload);
  fx.sched_id = sr.get_u64();
  return fx;
}

Frame detect_frame(const LoadedFixture& fx, std::string_view key) {
  PayloadWriter w;
  w.put_u64(fx.design_id);
  w.put_u64(fx.sched_id);
  w.put_str(key);
  w.put_str(fx.records);
  return Frame{MsgType::kDetect, std::move(w).take()};
}

TEST(ServiceTest, PingPong) {
  Service service;
  const Frame r = service.handle(Frame{MsgType::kPing, {}});
  EXPECT_EQ(r.type, MsgType::kPong);
  EXPECT_TRUE(r.payload.empty());
}

TEST(ServiceTest, PingWithPayloadIsAParseError) {
  Service service;
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kPing, "x"})), kErrParse);
}

TEST(ServiceTest, UnknownTypeIsTyped) {
  Service service;
  EXPECT_EQ(error_code(service.handle(
                Frame{static_cast<MsgType>(0x40), {}})),
            kErrUnknownType);
  // Response types are not requests either.
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kPong, {}})),
            kErrUnknownType);
}

TEST(ServiceTest, HandleBytesRejectsGarbageAndTruncation) {
  Service service;
  EXPECT_EQ(error_code(service.handle_bytes("not a frame at all")),
            kErrBadFrame);
  const std::string wire = encode_frame(Frame{MsgType::kPing, {}});
  EXPECT_EQ(error_code(service.handle_bytes(
                std::string_view(wire).substr(0, 6))),
            kErrBadFrame);
  EXPECT_EQ(service.handle_bytes(wire).type, MsgType::kPong);
}

TEST(ServiceTest, LoadDesignReportsShapeAndResidency) {
  Service service;
  const std::string text = fixture_text();
  const Frame first = service.handle(load_design_frame(text));
  ASSERT_EQ(first.type, MsgType::kDesignLoaded);
  PayloadReader r1(first.payload);
  const std::uint64_t id = r1.get_u64();
  const std::uint32_t nodes = r1.get_u32();
  const std::uint32_t ops = r1.get_u32();
  const std::uint32_t cp = r1.get_u32();
  const std::uint32_t cp_min = r1.get_u32();
  EXPECT_EQ(r1.get_u8(), 0);  // first load: not already resident
  EXPECT_TRUE(r1.complete());
  EXPECT_GT(nodes, ops);
  EXPECT_GT(cp, 0u);
  EXPECT_LE(cp_min, cp);

  const Frame second = service.handle(load_design_frame(text));
  ASSERT_EQ(second.type, MsgType::kDesignLoaded);
  PayloadReader r2(second.payload);
  EXPECT_EQ(r2.get_u64(), id);
  (void)r2.get_u32();
  (void)r2.get_u32();
  (void)r2.get_u32();
  (void)r2.get_u32();
  EXPECT_EQ(r2.get_u8(), 1);  // already resident
}

TEST(ServiceTest, ColdLoadCountsOneStoreMiss) {
  // One load request is one store lookup: a cold load is one miss (the
  // insert), a warm one a hit, and neither probes the store twice.
  Service service;
  const std::string text = fixture_text();
  ASSERT_EQ(service.handle(load_design_frame(text)).type,
            MsgType::kDesignLoaded);
  DesignStoreStats s = service.store().stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  ASSERT_EQ(service.handle(load_design_frame(text)).type,
            MsgType::kDesignLoaded);
  s = service.store().stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ServiceTest, LoadDesignParseErrorCarriesLocation) {
  Service service;
  const Frame r = service.handle(load_design_frame("cdfg x\nnode ??\n"));
  ErrorInfo info;
  ASSERT_TRUE(parse_error_frame(r, info));
  EXPECT_EQ(info.code, kErrParse);
  EXPECT_EQ(info.diag.file, "<design>");
  EXPECT_GT(info.diag.line, 0);
}

TEST(ServiceTest, EmbedDetectRoundTrip) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame detected = service.handle(detect_frame(fx, "alice-key"));
  ASSERT_EQ(detected.type, MsgType::kDetected);
  PayloadReader r(detected.payload);
  const std::uint32_t n = r.get_u32();
  ASSERT_GT(n, 0u);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.get_u8(), 1) << "record " << i << " must be detected";
    EXPECT_GT(r.get_u32(), 0u);  // at least one hit
    (void)r.get_u32();           // best root
  }
  EXPECT_GT(r.get_u32(), 0u);  // roots scanned
  EXPECT_TRUE(r.complete());
}

TEST(ServiceTest, WrongKeyDoesNotDetect) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame detected = service.handle(detect_frame(fx, "eve-key"));
  ASSERT_EQ(detected.type, MsgType::kDetected);
  PayloadReader r(detected.payload);
  const std::uint32_t n = r.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.get_u8(), 0) << "record " << i;
    (void)r.get_u32();
    (void)r.get_u32();
  }
}

TEST(ServiceTest, DetectRefusesHostileRecords) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  // A tau past embed's bound would make the scan's cost grow with tau.
  LoadedFixture hostile = fx;
  hostile.records += "sched tau=100000 keep=1/2 pairs=0\nops 1\n";
  const Frame refused = service.handle(detect_frame(hostile, "alice-key"));
  EXPECT_EQ(error_code(refused), kErrTooLarge);
  ErrorInfo info;
  ASSERT_TRUE(parse_error_frame(refused, info));
  EXPECT_NE(info.diag.message.find("tau out of range"), std::string::npos);
  // A negative position is refused where the records are parsed.
  hostile.records =
      fx.records + "sched tau=6 keep=1/2 pairs=1\npos 0 -1\nops 1 2\n";
  EXPECT_EQ(error_code(service.handle(detect_frame(hostile, "alice-key"))),
            kErrParse);
  // So is an op id naming no op kind: the detector indexes by it.
  for (const char* op : {"0", "-3", "19"}) {
    hostile.records = fx.records + "sched tau=6 keep=1/2 pairs=0\nops 4 " +
                      op + "\n";
    const Frame bad_op = service.handle(detect_frame(hostile, "alice-key"));
    EXPECT_EQ(error_code(bad_op), kErrParse) << op;
    ASSERT_TRUE(parse_error_frame(bad_op, info));
    EXPECT_NE(info.diag.message.find("ops ids must lie in"), std::string::npos)
        << info.diag.message;
  }
  EXPECT_EQ(service.handle(detect_frame(fx, "alice-key")).type,
            MsgType::kDetected);
}

TEST(ServiceTest, ParameterBoundsAreEnforced) {
  Service service;
  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  PayloadReader lr(loaded.payload);
  const std::uint64_t id = lr.get_u64();
  const auto& o = service.options();
  EXPECT_EQ(error_code(service.handle(embed_frame(id, ""))), kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 0))), kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", o.max_marks + 1))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, o.max_tau + 1))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 8, 0))),
            kErrTooLarge);
  EXPECT_EQ(
      error_code(service.handle(embed_frame(id, "k", 3, 8, o.max_k + 1))),
      kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 8, 3, 0.0))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 8, 3, 1.0))),
            kErrTooLarge);
}

TEST(ServiceTest, MissingDesignAndScheduleAreNotFound) {
  Service service;
  EXPECT_EQ(error_code(service.handle(embed_frame(0xDEAD, "k"))),
            kErrNotFound);
  LoadedFixture fx;
  fx.design_id = 0xDEAD;
  fx.sched_id = 1;
  fx.records = "lwm-records v1\n";
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "k"))), kErrNotFound);

  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  PayloadReader lr(loaded.payload);
  fx.design_id = lr.get_u64();  // design resident, schedule still missing
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "k"))), kErrNotFound);
}

TEST(ServiceTest, ForgedScheduleIdIsNotFound) {
  Service service;
  LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame other = service.handle(load_design_frame(fixture_text(200)));
  ASSERT_EQ(other.type, MsgType::kDesignLoaded);
  PayloadReader r(other.payload);
  const std::uint64_t design_b = r.get_u64();
  ASSERT_NE(design_b, fx.design_id);
  // A schedule id that maps design B onto the resident (A, s) key: the
  // detect must not run B's graph against A's schedule.
  fx.sched_id =
      test_support::forged_schedule_id(fx.design_id, fx.sched_id, design_b);
  fx.design_id = design_b;
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "alice-key"))),
            kErrNotFound);
}

TEST(ServiceTest, MalformedPayloadsAreParseErrors) {
  Service service;
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kLoadDesign, "xy"})),
            kErrParse);
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kEmbed, "\x01"})),
            kErrParse);
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kEvict, {}})), kErrParse);
  // Trailing bytes after a well-formed payload are rejected too.
  PayloadWriter w;
  w.put_u64(1);
  w.put_u8(0);
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kEvict,
                                            std::move(w).take()})),
            kErrParse);
}

TEST(ServiceTest, PcEstimateIsFiniteAndNegative) {
  Service service;
  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  PayloadReader lr(loaded.payload);
  const std::uint64_t id = lr.get_u64();
  Frame req = embed_frame(id, "alice-key");
  req.type = MsgType::kPc;
  const Frame r = service.handle(req);
  ASSERT_EQ(r.type, MsgType::kPcEstimated);
  PayloadReader pr(r.payload);
  const double log10_pc = pr.get_f64();
  (void)pr.get_u8();  // exact
  const bool degenerate = pr.get_u8() != 0;
  const std::uint32_t marks = pr.get_u32();
  EXPECT_TRUE(pr.complete());
  EXPECT_GT(marks, 0u);
  EXPECT_TRUE(std::isfinite(log10_pc));
  // A probability: log10 never positive.  (Exactly 0 is legitimate —
  // exact enumeration may find every schedule satisfies the mark.)
  EXPECT_LE(log10_pc, 0.0);
  (void)degenerate;
}

TEST(ServiceTest, EvictMakesDetectNotFound) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  PayloadWriter w;
  w.put_u64(fx.design_id);
  const Frame evicted =
      service.handle(Frame{MsgType::kEvict, std::move(w).take()});
  ASSERT_EQ(evicted.type, MsgType::kEvicted);
  PayloadReader er(evicted.payload);
  EXPECT_EQ(er.get_u8(), 1);
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "alice-key"))),
            kErrNotFound);
}

TEST(ServiceTest, StatsReportsStoreAndObs) {
  Service service;
  (void)service.handle(load_design_frame(fixture_text()));
  const Frame r = service.handle(Frame{MsgType::kStats, {}});
  ASSERT_EQ(r.type, MsgType::kStatsReport);
  PayloadReader pr(r.payload);
  const std::string json(pr.get_str());
  EXPECT_TRUE(pr.complete());
  EXPECT_EQ(json.rfind("{\"designs\":1,", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"obs\":"), std::string::npos);
}

TEST(ServiceTest, MarkedDesignRoundTripsThroughPeriodicScheduler) {
  // End-to-end over the wire: a marked (cyclic) design loads, embed
  // dispatches the periodic backend for its witness schedule, the
  // witness round-trips into detect, and pc counts periodic
  // alternatives — all through the same frames an acyclic client uses.
  Service service;
  cdfg::Graph g = dfglib::iir4_parallel();
  (void)dfglib::add_feedback(g, 2);
  ASSERT_TRUE(g.has_token_edges());

  const Frame loaded = service.handle(load_design_frame(cdfg::to_text(g)));
  ASSERT_EQ(loaded.type, MsgType::kDesignLoaded);
  PayloadReader lr(loaded.payload);
  const std::uint64_t design_id = lr.get_u64();

  const Frame embedded =
      service.handle(embed_frame(design_id, "alice-key", 2, 6));
  ASSERT_EQ(embedded.type, MsgType::kEmbedded);
  PayloadReader er(embedded.payload);
  const std::uint32_t marks = er.get_u32();
  (void)er.get_u32();  // edges
  const double log10_pc = er.get_f64();
  const std::string records(er.get_str());
  const std::string sched_text(er.get_str());
  EXPECT_TRUE(er.complete());
  ASSERT_GT(marks, 0u);
  EXPECT_TRUE(std::isfinite(log10_pc));
  EXPECT_LE(log10_pc, 0.0);

  PayloadWriter sw;
  sw.put_u64(design_id);
  sw.put_str(sched_text);
  const Frame sched =
      service.handle(Frame{MsgType::kLoadSchedule, std::move(sw).take()});
  ASSERT_EQ(sched.type, MsgType::kScheduleLoaded);
  PayloadReader sr(sched.payload);
  const std::uint64_t sched_id = sr.get_u64();

  PayloadWriter dw;
  dw.put_u64(design_id);
  dw.put_u64(sched_id);
  dw.put_str("alice-key");
  dw.put_str(records);
  const Frame detected =
      service.handle(Frame{MsgType::kDetect, std::move(dw).take()});
  ASSERT_EQ(detected.type, MsgType::kDetected);
  PayloadReader dr(detected.payload);
  const std::uint32_t reports = dr.get_u32();
  ASSERT_EQ(reports, marks);
  std::uint32_t hits = 0;
  for (std::uint32_t i = 0; i < reports; ++i) {
    hits += dr.get_u8();
    (void)dr.get_u32();  // constraint hits
    (void)dr.get_u32();  // best_root
  }
  EXPECT_EQ(hits, marks)
      << "every mark must survive its own periodic witness schedule";

  Frame pc_req = embed_frame(design_id, "alice-key", 2, 6);
  pc_req.type = MsgType::kPc;
  const Frame pc = service.handle(pc_req);
  ASSERT_EQ(pc.type, MsgType::kPcEstimated);
  PayloadReader pr(pc.payload);
  const double pc_log10 = pr.get_f64();
  EXPECT_TRUE(std::isfinite(pc_log10));
  EXPECT_LE(pc_log10, 0.0);
}

TEST(ServiceTest, DetectIsDeterministicAcrossRepeats) {
  // The concurrent-client invariance test (server_test) relies on a
  // single-threaded baseline: the same detect request yields the same
  // bytes every time.
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame first = service.handle(detect_frame(fx, "alice-key"));
  for (int i = 0; i < 3; ++i) {
    const Frame again = service.handle(detect_frame(fx, "alice-key"));
    EXPECT_EQ(again.type, first.type);
    EXPECT_EQ(again.payload, first.payload);
  }
}

TEST(ServiceTest, ConcurrentDetectsOnOneDesignMatchSerial) {
  // Two clients detect different record sets on one resident design at
  // once: both fill the design's one cone memo (whichever request comes
  // first fixes its tau), and neither may see a byte move.  The reference
  // answers come from fresh services, one request each.
  const auto answer_alone = [](std::string_view records) {
    Service fresh;
    LoadedFixture fx = load_and_embed(fresh, "alice-key");
    fx.records = records;
    return fresh.handle(detect_frame(fx, "alice-key"));
  };
  exec::ThreadPool pool(2);
  ServiceOptions opts;
  opts.pool = &pool;
  Service service(opts);
  LoadedFixture a = load_and_embed(service, "alice-key");
  LoadedFixture b = a;
  ASSERT_NE(b.records.find("tau=8"), std::string::npos);
  for (std::size_t at; (at = b.records.find("tau=8")) != std::string::npos;) {
    b.records.replace(at, 5, "tau=6");
  }
  const Frame want_a = answer_alone(a.records);
  const Frame want_b = answer_alone(b.records);
  ASSERT_EQ(want_a.type, MsgType::kDetected);
  ASSERT_EQ(want_b.type, MsgType::kDetected);

  const auto client = [&service](const LoadedFixture& fx, const Frame& want) {
    for (int i = 0; i < 3; ++i) {
      const Frame got = service.handle(detect_frame(fx, "alice-key"));
      EXPECT_EQ(got.type, want.type);
      EXPECT_EQ(got.payload, want.payload);
    }
  };
  std::thread ta(client, std::cref(a), std::cref(want_a));
  std::thread tb(client, std::cref(b), std::cref(want_b));
  ta.join();
  tb.join();
}

// ---- Resident windows ------------------------------------------------------
//
// embed and pc read the design's resident specification timing instead
// of re-timing the marked copy.  Their answers must not move by a bit,
// and the work they skip must stay skipped.

std::uint64_t load_id(Service& service, std::string_view text) {
  const Frame loaded = service.handle(load_design_frame(text));
  EXPECT_EQ(loaded.type, MsgType::kDesignLoaded);
  PayloadReader lr(loaded.payload);
  return lr.get_u64();
}

/// The marks an embed/pc request with embed_frame's default tau, k and
/// epsilon places, rebuilt from scratch: the design text parsed afresh
/// and marked through the context-building overload (bit-identical to
/// the resident one).
struct Rebuilt {
  cdfg::Graph marked;
  std::vector<wm::SchedWatermark> marks;
};

Rebuilt rebuild(std::string_view text, std::string_view key,
                std::uint32_t marks) {
  auto parsed = cdfg::parse_cdfg(text, "<design>");
  EXPECT_TRUE(parsed.ok());
  Rebuilt r{std::move(parsed).value(), {}};
  wm::SchedWmOptions opts;
  opts.domain.tau = 8;
  opts.k = 3;
  opts.epsilon = 0.25;
  r.marks = wm::embed_local_watermarks_parallel(
      r.marked, crypto::Signature("serve-client", std::string(key)),
      static_cast<int>(marks), opts, nullptr);
  return r;
}

/// The log10_pc of an embed response.
double embed_log10_pc(const Frame& embedded) {
  EXPECT_EQ(embedded.type, MsgType::kEmbedded);
  PayloadReader er(embedded.payload);
  (void)er.get_u32();  // marks
  (void)er.get_u32();  // edges
  return er.get_f64();
}

TEST(ServiceTest, EmbedAndPcReportTheSameLog10PcBitForBit) {
  // embed and pc share one path to sched_pc_auto, so the same request
  // parameters give the same bits on both, and the same bits as the
  // front door run from scratch on a freshly parsed and marked design.
  // 300 ops stays on the exact-enumeration path; 3000 ops crosses the
  // Poisson threshold, with enough marks that summing them in another
  // order moves the last bit; the marked graph counts periodic schedules
  // at its recurrence-minimum II.
  cdfg::Graph looped = fixture_graph();
  (void)dfglib::add_feedback(looped, 2);
  const struct {
    const char* what;
    std::string text;
    std::uint32_t marks;
    bool periodic;
  } cases[] = {{"300 ops", fixture_text(300), 3, false},
               {"3000 ops", fixture_text(3000), 24, false},
               {"marked graph", cdfg::to_text(looped), 3, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    Service service;
    const std::uint64_t id = load_id(service, c.text);
    const Rebuilt r = rebuild(c.text, "alice-key", c.marks);
    ASSERT_FALSE(r.marks.empty());
    ASSERT_EQ(r.marked.has_token_edges(), c.periodic);
    const int ii = c.periodic ? sched::recurrence_min_ii(r.marked) : 0;
    const wm::PcEstimate scratch = wm::sched_pc_auto(r.marked, r.marks, ii);

    const double embedded =
        embed_log10_pc(service.handle(embed_frame(id, "alice-key", c.marks)));
    Frame req = embed_frame(id, "alice-key", c.marks);
    req.type = MsgType::kPc;
    const Frame pc = service.handle(req);
    ASSERT_EQ(pc.type, MsgType::kPcEstimated);
    PayloadReader pr(pc.payload);
    const double estimated = pr.get_f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(embedded),
              std::bit_cast<std::uint64_t>(estimated));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(estimated),
              std::bit_cast<std::uint64_t>(scratch.log10_pc));
    EXPECT_EQ(pr.get_u8(), scratch.exact ? 1 : 0);
    EXPECT_EQ(pr.get_u8(), scratch.degenerate ? 1 : 0);
    EXPECT_EQ(pr.get_u32(), r.marks.size());
    EXPECT_TRUE(pr.complete());
  }
}

TEST(ServiceTest, PcAndEmbedBoundEveryExactAttemptByTheBudget) {
  // A 1,957-node design sits under the exact path's 2048-node threshold,
  // yet at tau 8 and k 3 six of its eight marks have schedule spaces far
  // past the exact budget: unbounded, the second mark counted for
  // minutes.  Both requests must stop each of those six at the budget
  // (one psi_n enumeration, no psi_w) and fall back to the Poisson
  // model; the other two complete both counts.  The counts pin the work,
  // so an unbounded path fails here (or at the ctest TIMEOUT) instead of
  // pinning a core.
  const std::string text =
      cdfg::to_text(fixture_graph(1500, 64));
  Service service;
  const std::uint64_t id = load_id(service, text);
  ASSERT_EQ(service.store().find_design(id)->graph.node_count(), 1957u);
  constexpr std::uint32_t kMarks = 8;
#if LWM_OBS_ENABLED
  obs::Registry& reg = obs::Registry::instance();
  const auto totals = [&reg] {
    return std::array<std::uint64_t, 3>{
        reg.counter("wm/pc_auto_exact").total(),
        reg.counter("wm/pc_auto_poisson").total(),
        reg.counter("wm/psi_evals").total()};
  };
#endif
  double log10_pc[2] = {};
  for (const MsgType type : {MsgType::kPc, MsgType::kEmbed}) {
    SCOPED_TRACE(type == MsgType::kPc ? "pc" : "embed");
#if LWM_OBS_ENABLED
    const auto before = totals();
#endif
    Frame req = embed_frame(id, "alice-key", kMarks, 8, 3);
    req.type = type;
    const Frame r = service.handle(req);
    if (type == MsgType::kPc) {
      ASSERT_EQ(r.type, MsgType::kPcEstimated);
      PayloadReader pr(r.payload);
      log10_pc[0] = pr.get_f64();
      EXPECT_EQ(pr.get_u8(), 0) << "exact";
      EXPECT_EQ(pr.get_u8(), 0) << "degenerate";
      EXPECT_EQ(pr.get_u32(), kMarks);
      EXPECT_TRUE(pr.complete());
    } else {
      log10_pc[1] = embed_log10_pc(r);
    }
#if LWM_OBS_ENABLED
    const auto after = totals();
    EXPECT_EQ(after[0] - before[0], kMarks) << "exact attempts";
    EXPECT_EQ(after[1] - before[1], 6u) << "Poisson fallbacks";
    EXPECT_EQ(after[2] - before[2], 2 * kMarks - 6) << "enumerations";
#endif
  }
  EXPECT_LT(log10_pc[0], 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(log10_pc[0]),
            std::bit_cast<std::uint64_t>(log10_pc[1]));
}

TEST(ServiceTest, LoadDesignReportsBoundedCriticalPaths) {
  constexpr std::string_view bounded =
      "cdfg bounded\n"
      "node in1 input\n"
      "node a add 1:2\n"
      "node m mul 2:5\n"
      "node out1 output\n"
      "edge in1 a\n"
      "edge a m\n"
      "edge m out1\n";
  auto parsed = cdfg::parse_cdfg(bounded, "<design>");
  ASSERT_TRUE(parsed.ok());
  const cdfg::BoundedTimingInfo t = cdfg::compute_timing_bounded(
      parsed.value(), -1, cdfg::EdgeFilter::specification());
  Service service;
  const Frame loaded = service.handle(load_design_frame(bounded));
  ASSERT_EQ(loaded.type, MsgType::kDesignLoaded);
  PayloadReader r(loaded.payload);
  (void)r.get_u64();  // id
  (void)r.get_u32();  // nodes
  (void)r.get_u32();  // operations
  EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(t.pess.critical_path));
  EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(t.critical_path_min));
  EXPECT_LT(t.critical_path_min, t.pess.critical_path);
}

TEST(ServiceTest, WmRequestsReuseResidentWindows) {
#if LWM_OBS_ENABLED
  // Work guard: every compute_timing pass and every periodic-window pass
  // of sched_pc_auto bumps cdfg/timing_passes.  A flat pc request reads
  // the resident windows at any mark count; embed's one pass is its
  // witness schedule.
  obs::Counter& passes = obs::Registry::instance().counter("cdfg/timing_passes");
  Service service;
  const std::string text = fixture_text(3000);
  const std::uint64_t id = load_id(service, text);
  ASSERT_GT(service.store().find_design(id)->graph.node_count(),
            2048u);  // sched_pc_auto's Poisson threshold
  for (const std::uint32_t marks : {4u, 64u}) {
    Frame req = embed_frame(id, "alice-key", marks);
    req.type = MsgType::kPc;
    const std::uint64_t before = passes.total();
    const Frame pc = service.handle(req);
    ASSERT_EQ(pc.type, MsgType::kPcEstimated);
    EXPECT_EQ(passes.total() - before, 0u) << marks << " marks";
    PayloadReader pr(pc.payload);
    (void)pr.get_f64();
    (void)pr.get_u8();
    (void)pr.get_u8();
    EXPECT_EQ(pr.get_u32(), marks) << "every requested mark must embed";
  }
  std::uint64_t before = passes.total();
  ASSERT_EQ(service.handle(embed_frame(id, "alice-key", 4)).type,
            MsgType::kEmbedded);
  EXPECT_EQ(passes.total() - before, 1u);

  // A marked graph's P_c counts periodic schedules: one periodic timing
  // pass per request, shared by every mark.
  cdfg::Graph g = dfglib::make_fft(8);
  (void)dfglib::add_feedback(g, 2);
  const std::uint64_t marked_id = load_id(service, cdfg::to_text(g));
  Frame req = embed_frame(marked_id, "alice-key", 4, 6);
  req.type = MsgType::kPc;
  before = passes.total();
  const Frame pc = service.handle(req);
  ASSERT_EQ(pc.type, MsgType::kPcEstimated);
  EXPECT_LE(passes.total() - before, 1u);
  PayloadReader pr(pc.payload);
  (void)pr.get_f64();
  (void)pr.get_u8();
  (void)pr.get_u8();
  EXPECT_GE(pr.get_u32(), 2u) << "the shared pass must serve several marks";
#else
  GTEST_SKIP() << "pass counting needs LWM_OBS=ON";
#endif
}

}  // namespace
}  // namespace lwm::serve
