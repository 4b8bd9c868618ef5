// driver.cpp — closed-loop load driver for the lwm-serve benchmark.
//
//   svcbench_driver --workload scan|protect|interrogate --seed N
//                   --seconds S --trace 0|1 --run-dir DIR [--min-ops N]
//                   [--dump DIR]
//
// Spawns the lwm-serve daemon built from the same checkout with a pool of
// two threads, drives it over AF_UNIX with serve::Client from at most two
// connections, and prints one raw JSON record on stdout.  run.py turns
// that record into the benchmark's metrics; this file measures, it does
// not summarise.
//
// The record holds per-operation latencies, failures, set-up times, false
// hits and the daemon's peak RSS.  With --trace 1 it also holds a span
// around every client call, the daemon's `stats` registry before and
// after the timed phase, and spans from an in-process replay of the first
// operations through each module's public functions (parse_cdfg,
// DesignStore::load_design, parse_schedule, parse_records,
// detect_sched_watermarks, embed_local_watermarks_parallel,
// schedule_with, the sched_pc_* estimators, the text serialisers and the
// frame codec).
//
// --dump DIR writes each workload's inputs in the lwm-scan layout
// (<stem>.cdfg / .sched / .lwm) and exits without timing anything, so a
// slow or failing operation can be replayed with `lwm-scan --socket`.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "crypto/signature.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "sched/backend.h"
#include "sched/schedule.h"
#include "sched/schedule_io.h"
#include "serve/design_store.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/records_io.h"
#include "wm/sched_constraints.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using lwm::serve::Frame;
using lwm::serve::MsgType;
using lwm::serve::PayloadReader;
using lwm::serve::PayloadWriter;

// --- Workload shape --------------------------------------------------------
//
// Sizes are stratified log-uniform samples: stratum j of M covers
// [lo * r^j, lo * r^(j+1)) with r = (hi/lo)^(1/M), and the seed places each
// design in the middle half of its stratum.  Every run therefore covers the
// whole size range, so throughput and tail latency do not hinge on whether
// one seed happened to draw a few large designs.

constexpr int kServeThreads = 2;  // daemon pool: concurrency 2 = 1 worker
constexpr int kTau = 8;
constexpr int kK = 3;
constexpr double kEpsilon = 0.25;
constexpr int kSetupRepeats = 3;   // set-ups per untraced run (median reported)
constexpr std::size_t kReplayCap = 64;  // operations whose frames a traced run keeps

// Many distinct designs per run keep the percentiles off any one graph's
// structure; only their text is kept once the set-up is done.
constexpr int kScanStrata = 32;  // per connection; 64 suspects in all
constexpr int kScanMinOps = 2'000;
// 16k rather than 20k: the quadratic schedule parse makes the largest
// suspects dominate the run, and with 16k a 25 s run completes 100-140
// operations on 4 cores, just over the 100 that the 90th percentile needs.
constexpr int kScanMaxOps = 16'000;
constexpr int kProtectStrata = 32;
constexpr int kProtectMinOps = 5'000;
constexpr int kProtectMaxOps = 50'000;
constexpr int kInterrogateOps[2] = {10'000, 30'000};
// Each request carries 1-8 records, and detect skips roots whose op kind
// roots none of them; a large archive to draw from keeps the mix of root
// kinds, and with it the cost per request, alike from seed to seed.
constexpr std::uint32_t kInterrogateMarks = 64;
constexpr int kInterrogateSpecs = 256;  // seeded requests per connection, cycled

// --- Clock, RNG, JSON -----------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch)
      .count();
}

/// splitmix64: a fixed, portable generator, so one seed gives the same
/// inputs with any standard library.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

std::vector<int> stratified_sizes(Rng& rng, int strata, int lo, int hi) {
  std::vector<int> sizes;
  const double span = std::log(static_cast<double>(hi) / lo);
  for (int j = 0; j < strata; ++j) {
    const double u = (j + 0.25 + 0.5 * rng.uniform()) / strata;
    sizes.push_back(static_cast<int>(std::lround(lo * std::exp(u * span))));
  }
  return sizes;
}

/// Draws from lo..hi (inclusive) like a shuffled deck: every value once
/// per pass, in a seeded order.  A run then sees each value equally
/// often, instead of whatever mix one seed happens to draw.
class Deck {
 public:
  Deck(int lo, int hi) : lo_(lo), hi_(hi) {}
  int draw(Rng& rng) {
    if (left_.empty()) {
      for (int v = lo_; v <= hi_; ++v) left_.push_back(v);
      for (std::size_t i = left_.size() - 1; i > 0; --i) {
        std::swap(left_[i], left_[static_cast<std::size_t>(rng.range(0, static_cast<int>(i)))]);
      }
    }
    const int v = left_.back();
    left_.pop_back();
    return v;
  }

 private:
  int lo_, hi_;
  std::vector<int> left_;
};

/// Visits 0..n-1 (n a power of two) in bit-reversed order from a seeded
/// offset: any run of consecutive operations spreads over all strata.
std::vector<int> spread_order(int n, Rng& rng) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int r = 0;
    for (int b = 0; b < bits; ++b) r |= ((i >> b) & 1) << (bits - 1 - b);
    order[static_cast<std::size_t>(i)] = r;
  }
  std::rotate(order.begin(), order.begin() + rng.range(0, n - 1), order.end());
  return order;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- Spans ------------------------------------------------------------------

/// One timed interval.  `a`/`b` carry the unit counts a span measures:
/// request/response bytes for client calls, bytes for cdfg.parse, lines
/// for sched.parse.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  int lane = 0;
  long op = -1;
  std::int64_t start = 0;
  std::int64_t dur = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Spans are kept in memory and written out once the run ends.
class SpanLog {
 public:
  int open(std::string name, int parent, int lane, long op) {
    std::lock_guard lock(mutex_);
    Span s;
    s.name = std::move(name);
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.lane = lane;
    s.op = op;
    s.start = now_ns();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(int id, std::int64_t a, std::int64_t b) {
    const std::int64_t end = now_ns();
    std::lock_guard lock(mutex_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur = end - s.start;
    s.a = a;
    s.b = b;
  }
  void write_json(std::string& out) const {
    std::lock_guard lock(mutex_);
    out += "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i != 0) out += ",\n";
      out += "[" + json_str(s.name) + "," + std::to_string(s.id) + "," +
             std::to_string(s.parent) + "," + std::to_string(s.lane) + "," +
             std::to_string(s.op) + "," + std::to_string(s.start) + "," +
             std::to_string(s.dur) + "," + std::to_string(s.a) + "," +
             std::to_string(s.b) + "]";
    }
    out += "]";
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it free (untraced runs).
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name, int parent, int lane = 0, long op = -1)
      : log_(log), id_(log ? log->open(std::move(name), parent, lane, op) : -1) {}
  ~Scoped() {
    if (log_) log_->close(id_, a, b);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }
  std::int64_t a = 0;
  std::int64_t b = 0;

 private:
  SpanLog* log_;
  int id_;
};

// --- Frames -----------------------------------------------------------------

Frame make_load_design(std::string_view text) {
  PayloadWriter w;
  w.put_str(text);
  return Frame{MsgType::kLoadDesign, std::move(w).take()};
}

Frame make_load_schedule(std::uint64_t design_id, std::string_view text) {
  PayloadWriter w;
  w.put_u64(design_id);
  w.put_str(text);
  return Frame{MsgType::kLoadSchedule, std::move(w).take()};
}

Frame make_detect(std::uint64_t design_id, std::uint64_t sched_id,
                  std::string_view key, std::string_view records) {
  PayloadWriter w;
  w.put_u64(design_id);
  w.put_u64(sched_id);
  w.put_str(key);
  w.put_str(records);
  return Frame{MsgType::kDetect, std::move(w).take()};
}

/// Embed and pc share one parameter block.
Frame make_wm_request(MsgType type, std::uint64_t design_id, std::string_view key,
                      std::uint32_t marks) {
  PayloadWriter w;
  w.put_u64(design_id);
  w.put_str(key);
  w.put_u32(marks);
  w.put_u32(kTau);
  w.put_u32(kK);
  w.put_f64(kEpsilon);
  return Frame{type, std::move(w).take()};
}

Frame make_evict(std::uint64_t design_id) {
  PayloadWriter w;
  w.put_u64(design_id);
  return Frame{MsgType::kEvict, std::move(w).take()};
}

const char* type_name(MsgType t) {
  switch (t) {
    case MsgType::kLoadDesign: return "load_design";
    case MsgType::kLoadSchedule: return "load_schedule";
    case MsgType::kEmbed: return "embed";
    case MsgType::kDetect: return "detect";
    case MsgType::kPc: return "pc";
    case MsgType::kStats: return "stats";
    case MsgType::kEvict: return "evict";
    default: return "other";
  }
}

/// The resident design's id.
std::optional<std::uint64_t> read_design_loaded(const Frame& f) {
  if (f.type != MsgType::kDesignLoaded) return std::nullopt;
  PayloadReader r(f.payload);
  const std::uint64_t id = r.get_u64();
  (void)r.get_u32();  // nodes
  (void)r.get_u32();  // ops
  (void)r.get_u32();  // critical path
  (void)r.get_u32();  // optimistic critical path
  (void)r.get_u8();   // already resident
  if (!r.complete()) return std::nullopt;
  return id;
}

std::optional<std::uint64_t> read_schedule_loaded(const Frame& f) {
  if (f.type != MsgType::kScheduleLoaded) return std::nullopt;
  PayloadReader r(f.payload);
  const std::uint64_t id = r.get_u64();
  (void)r.get_u32();  // schedule length
  if (!r.complete()) return std::nullopt;
  return id;
}

struct Embedded {
  std::uint32_t marks = 0;
  double log10_pc = 0.0;
  std::string records;
  std::string schedule;
};

std::optional<Embedded> read_embedded(const Frame& f) {
  if (f.type != MsgType::kEmbedded) return std::nullopt;
  PayloadReader r(f.payload);
  Embedded e;
  e.marks = r.get_u32();
  (void)r.get_u32();  // temporal edges
  e.log10_pc = r.get_f64();
  e.records = std::string(r.get_str());
  e.schedule = std::string(r.get_str());
  if (!r.complete()) return std::nullopt;
  return e;
}

struct Detected {
  std::uint32_t records = 0;
  std::uint32_t detected = 0;
  std::uint64_t hits = 0;
};

std::optional<Detected> read_detected(const Frame& f) {
  if (f.type != MsgType::kDetected) return std::nullopt;
  PayloadReader r(f.payload);
  Detected d;
  d.records = r.get_u32();
  for (std::uint32_t i = 0; i < d.records && r.ok(); ++i) {
    d.detected += r.get_u8();
    d.hits += r.get_u32();
    (void)r.get_u32();  // best root
  }
  (void)r.get_u32();  // roots scanned
  if (!r.complete()) return std::nullopt;
  return d;
}

std::optional<double> read_pc(const Frame& f) {
  if (f.type != MsgType::kPcEstimated) return std::nullopt;
  PayloadReader r(f.payload);
  const double log10_pc = r.get_f64();
  (void)r.get_u8();   // exact
  (void)r.get_u8();   // degenerate
  (void)r.get_u32();  // marks
  if (!r.complete()) return std::nullopt;
  return log10_pc;
}

std::optional<bool> read_evicted(const Frame& f) {
  if (f.type != MsgType::kEvicted) return std::nullopt;
  PayloadReader r(f.payload);
  const bool existed = r.get_u8() != 0;
  if (!r.complete()) return std::nullopt;
  return existed;
}

std::optional<std::string> read_stats(const Frame& f) {
  if (f.type != MsgType::kStatsReport) return std::nullopt;
  PayloadReader r(f.payload);
  std::string json(r.get_str());
  if (!r.complete()) return std::nullopt;
  return json;
}

bool pc_ok(double log10_pc) { return std::isfinite(log10_pc) && log10_pc <= 0.0; }

// --- Designs ----------------------------------------------------------------

struct Design {
  std::string stem;
  int ops = 0;
  std::string text;
  std::string asap;  ///< ASAP schedule text, when asked for
};

std::string asap_schedule_text(const lwm::cdfg::Graph& g) {
  const lwm::cdfg::TimingInfo t =
      lwm::cdfg::compute_timing(g, -1, lwm::cdfg::EdgeFilter::all());
  lwm::sched::Schedule s(g);
  for (const lwm::cdfg::NodeId n : g.nodes()) s.set_start(n, t.asap[n.value]);
  return lwm::sched::schedule_to_text(g, s);
}

Design make_design(std::string stem, int ops, std::uint64_t seed, bool with_asap = false) {
  lwm::dfglib::MegaConfig cfg;
  cfg.name = stem;
  cfg.shape = lwm::dfglib::MegaShape::kLayeredDeep;
  cfg.operations = ops;
  cfg.seed = seed;
  const lwm::cdfg::Graph g = lwm::dfglib::make_mega_design(cfg);
  return Design{std::move(stem), ops, lwm::cdfg::to_text(g),
                with_asap ? asap_schedule_text(g) : std::string()};
}

/// Checks schedule text against its design in linear time through the
/// driver's own name->node map (sched::parse_schedule is quadratic today
/// and would dominate the checks), then runs sched::verify_schedule.
bool schedule_verifies(const lwm::cdfg::Graph& g, std::string_view text) {
  std::unordered_map<std::string_view, lwm::cdfg::NodeId> by_name;
  by_name.reserve(g.node_count());
  for (const lwm::cdfg::NodeId n : g.nodes()) by_name.emplace(g.node(n).name, n);
  lwm::sched::Schedule s(g);
  bool header = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line.rfind("schedule", 0) == 0) {
      header = true;
      continue;
    }
    if (line.rfind("at ", 0) != 0) return false;
    const std::size_t sp = line.find(' ', 3);
    if (sp == std::string_view::npos) return false;
    const auto it = by_name.find(line.substr(3, sp - 3));
    if (it == by_name.end()) return false;
    int step = 0;
    for (const char c : line.substr(sp + 1)) {
      if (c < '0' || c > '9') return false;
      step = step * 10 + (c - '0');
    }
    s.set_start(it->second, step);
  }
  return header && lwm::sched::verify_schedule(g, s).ok;
}

// --- Daemon -----------------------------------------------------------------

/// The spawned lwm-serve process.  The destructor stops it and waits, so
/// no exit path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& log_path)
      : socket_(socket_path) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const std::string threads = std::to_string(kServeThreads);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>("--socket"),
                               const_cast<char*>(socket_.c_str()),
                               const_cast<char*>("--threads"),
                               const_cast<char*>(threads.c_str()), nullptr};
    if (posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&fa);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects once the socket accepts; nullopt if the daemon died or did
  /// not come up within 20 s.
  std::optional<lwm::serve::Client> connect() {
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    while (pid_ > 0 && now_ns() < deadline) {
      lwm::serve::Client c = lwm::serve::Client::connect(socket_);
      if (c.connected()) return c;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return std::nullopt;
  }

  /// The daemon's peak resident set (VmHWM), in KiB; 0 if unreadable.
  /// getrusage(RUSAGE_CHILDREN) is no use here: a spawned child is charged
  /// the spawning process's own high-water mark when it execs, so it would
  /// report the driver's footprint.
  [[nodiscard]] long peak_rss_kb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
    }
    return 0;
  }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// --- Operations -------------------------------------------------------------

struct OpRecord {
  int lane = 0;
  long id = 0;
  int input = 0;  ///< index into the workload's inputs
  std::int64_t start = 0;
  std::int64_t dur = 0;
  /// One per call; a transport failure leaves a kError frame with an
  /// empty payload.
  std::vector<Frame> responses;
  int span = -1;                ///< the op's span, parent of its call spans
  bool keep_requests = false;   ///< traced runs keep the first ops' frames
  std::vector<Frame> requests;  ///< kept for replay
  std::string failure;          ///< set by the run or by the output checks
};

/// One connection's client plus what a call needs to record itself.
struct Lane {
  int index = 0;
  lwm::serve::Client client;
  std::string socket;
  SpanLog* log = nullptr;
};

/// Sends one request, timing it from the client side.  A transport
/// failure reconnects the lane so the next operation starts clean.
const Frame& call(Lane& lane, OpRecord& op, Frame request) {
  std::optional<Frame> resp;
  {
    Scoped span(lane.log, std::string("call.") + type_name(request.type), op.span,
                lane.index, op.id);
    resp = lane.client.call(request);
    span.a = static_cast<std::int64_t>(request.payload.size() + lwm::serve::kHeaderSize);
    span.b = resp ? static_cast<std::int64_t>(resp->payload.size() + lwm::serve::kHeaderSize)
                  : 0;
  }
  if (!resp) {
    resp = Frame{MsgType::kError, {}};
    if (op.failure.empty()) op.failure = "transport";
    lane.client = lwm::serve::Client::connect(lane.socket);
  }
  if (op.keep_requests) op.requests.push_back(std::move(request));
  op.responses.push_back(std::move(*resp));
  return op.responses.back();
}

void note_failure(OpRecord& op, const char* why) {
  if (op.failure.empty()) op.failure = why;
}

/// Output-check tallies; false hits are a detection-quality figure, not
/// a failure.
struct Checks {
  std::uint64_t false_hits = 0;
  std::uint64_t false_trials = 0;
  std::uint64_t full_hits = 0;
};

// --- Workloads --------------------------------------------------------------

class Replayer;

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int lanes() const = 0;
  /// Builds the inputs and makes the daemon ready for the timed phase.
  /// Returns an error message, empty on success.
  virtual std::string setup(lwm::serve::Client& c) = 0;
  virtual void run_op(Lane& lane, OpRecord& op, int k) = 0;
  /// Linear-time output check after the timed phase; sets op.failure.
  virtual void check(OpRecord& op, Checks& checks) = 0;
  /// Writes the inputs in the lwm-scan layout; false if a write failed.
  [[nodiscard]] virtual bool dump(const fs::path& dir) const = 0;
  /// Makes resident in the replayer what the set-up made resident in the
  /// daemon (interrogate only).
  virtual void preload(Replayer&) const {}

 protected:
  explicit Workload(std::uint64_t seed)
      : seed_(seed),
        key_("svcbench-" + std::to_string(seed)),
        wrong_key_("svcbench-wrong-" + std::to_string(seed)) {}
  std::uint64_t seed_;
  std::string key_;
  std::string wrong_key_;
};

/// Writes <base>.cdfg, and .sched / .lwm when given: the lwm-scan layout.
bool write_stem(const fs::path& base, std::string_view cdfg, std::string_view sched,
                std::string_view records) {
  bool ok = true;
  for (const auto& [ext, content] : {std::pair{".cdfg", cdfg}, std::pair{".sched", sched},
                                     std::pair{".lwm", records}}) {
    if (content.empty()) continue;
    std::ofstream os(base.string() + ext, std::ios::binary);
    os << content;
    ok = ok && static_cast<bool>(os);
  }
  return ok;
}

/// Embeds a fresh design through the daemon and evicts it again, so the
/// suspect stays one the daemon has never seen resident.
std::string embed_and_evict(lwm::serve::Client& c, const Design& d,
                            const std::string& key, std::uint32_t marks,
                            Embedded& out) {
  const auto loaded = c.call(make_load_design(d.text));
  const auto design = loaded ? read_design_loaded(*loaded) : std::nullopt;
  if (!design) return "set-up load_design failed for " + d.stem;
  const auto emb = c.call(make_wm_request(MsgType::kEmbed, *design, key, marks));
  auto e = emb ? read_embedded(*emb) : std::nullopt;
  if (!e || e->marks == 0) return "set-up embed failed for " + d.stem;
  const auto ev = c.call(make_evict(*design));
  if (!ev || !read_evicted(*ev)) return "set-up evict failed for " + d.stem;
  out = std::move(*e);
  return {};
}

/// The lwm-scan dispute sweep, cold: every operation loads a suspect the
/// daemon does not hold, loads its schedule, detects and evicts.  Half the
/// suspects are marked (own archive, witness schedule); half are unmarked
/// decoys (ASAP schedule) scanned against a neighbouring marked archive.
class ScanWorkload final : public Workload {
 public:
  explicit ScanWorkload(std::uint64_t seed) : Workload(seed) {}
  [[nodiscard]] int lanes() const override { return 2; }

  std::string setup(lwm::serve::Client& c) override {
    Rng rng{seed_ * 0x51ED2701ull + 1};
    suspects_.clear();
    Deck marks(4, 8);
    for (int lane = 0; lane < 2; ++lane) {
      const std::vector<int> sizes =
          stratified_sizes(rng, kScanStrata, kScanMinOps, kScanMaxOps);
      for (int j = 0; j < kScanStrata; ++j) {
        Suspect s;
        s.marked = (j + lane) % 2 == 0;
        s.design = make_design("scan_" + std::to_string(lane) + "_" + std::to_string(j),
                               sizes[static_cast<std::size_t>(j)], rng.next(), !s.marked);
        s.marks = static_cast<std::uint32_t>(marks.draw(rng));
        suspects_.push_back(std::move(s));
      }
      orders_[lane] = spread_order(kScanStrata, rng);
    }
    for (Suspect& s : suspects_) {
      if (!s.marked) {
        s.schedule = std::move(s.design.asap);
        continue;
      }
      Embedded e;
      if (auto err = embed_and_evict(c, s.design, key_, s.marks, e); !err.empty()) {
        return err;
      }
      s.records = std::move(e.records);
      s.schedule = std::move(e.schedule);
    }
    // A decoy borrows the archive of the marked suspect next to it in
    // size, so decoy and archive never come from the same design.
    for (int lane = 0; lane < 2; ++lane) {
      for (int j = 0; j < kScanStrata; ++j) {
        Suspect& s = suspects_[static_cast<std::size_t>(lane * kScanStrata + j)];
        if (s.marked) continue;
        const int other = j + 1 < kScanStrata ? j + 1 : j - 1;
        s.records = suspects_[static_cast<std::size_t>(lane * kScanStrata + other)].records;
      }
    }
    return {};
  }

  void run_op(Lane& lane, OpRecord& op, int k) override {
    op.input = lane.index * kScanStrata +
               orders_[lane.index][static_cast<std::size_t>(k % kScanStrata)];
    const Suspect& s = suspects_[static_cast<std::size_t>(op.input)];
    const auto loaded = read_design_loaded(call(lane, op, make_load_design(s.design.text)));
    if (!loaded) return note_failure(op, "load_design");
    const auto sched_id =
        read_schedule_loaded(call(lane, op, make_load_schedule(*loaded, s.schedule)));
    if (sched_id) {
      call(lane, op, make_detect(*loaded, *sched_id, key_, s.records));
    } else {
      note_failure(op, "load_schedule");
    }
    call(lane, op, make_evict(*loaded));
  }

  void check(OpRecord& op, Checks& checks) override {
    if (!op.failure.empty()) return;
    const Suspect& s = suspects_[static_cast<std::size_t>(op.input)];
    if (op.responses.size() != 4) return note_failure(op, "call count");
    const auto d = read_detected(op.responses[2]);
    if (!d) return note_failure(op, "detect response");
    if (!read_evicted(op.responses[3])) return note_failure(op, "evict response");
    checks.full_hits += d->hits;
    if (s.marked) {
      if (d->records == 0 || d->detected != d->records) note_failure(op, "marked record missed");
    } else {
      checks.false_hits += d->detected;
      checks.false_trials += d->records;
    }
  }

  [[nodiscard]] bool dump(const fs::path& dir) const override {
    bool ok = true;
    for (const Suspect& s : suspects_) {
      ok = write_stem(dir / s.design.stem, s.design.text, s.schedule, s.records) && ok;
    }
    return ok;
  }

 private:
  struct Suspect {
    Design design;
    bool marked = false;
    std::uint32_t marks = 0;
    std::string schedule;
    std::string records;
  };
  std::vector<Suspect> suspects_;
  std::vector<int> orders_[2];
};

/// The designer's flow on a design the daemon has not seen: load, embed,
/// P_c, evict.  Never calls detect or parses a schedule.
class ProtectWorkload final : public Workload {
 public:
  explicit ProtectWorkload(std::uint64_t seed) : Workload(seed) {}
  [[nodiscard]] int lanes() const override { return 1; }

  std::string setup(lwm::serve::Client&) override {
    Rng rng{seed_ * 0x2545F491ull + 2};
    designs_.clear();
    const std::vector<int> sizes =
        stratified_sizes(rng, kProtectStrata, kProtectMinOps, kProtectMaxOps);
    for (int j = 0; j < kProtectStrata; ++j) {
      designs_.push_back(make_design("protect_" + std::to_string(j),
                                     sizes[static_cast<std::size_t>(j)], rng.next()));
    }
    order_ = spread_order(kProtectStrata, rng);
    return {};
  }

  static std::uint32_t marks_for(int ops) {
    return static_cast<std::uint32_t>(std::clamp(ops / 1000, 4, 64));
  }

  void run_op(Lane& lane, OpRecord& op, int k) override {
    op.input = order_[static_cast<std::size_t>(k % kProtectStrata)];
    const Design& d = designs_[static_cast<std::size_t>(op.input)];
    const auto loaded = read_design_loaded(call(lane, op, make_load_design(d.text)));
    if (!loaded) return note_failure(op, "load_design");
    const std::uint32_t marks = marks_for(d.ops);
    call(lane, op, make_wm_request(MsgType::kEmbed, *loaded, key_, marks));
    call(lane, op, make_wm_request(MsgType::kPc, *loaded, key_, marks));
    call(lane, op, make_evict(*loaded));
  }

  void check(OpRecord& op, Checks&) override {
    if (!op.failure.empty()) return;
    if (op.responses.size() != 4) return note_failure(op, "call count");
    const auto e = read_embedded(op.responses[1]);
    if (!e || e->marks == 0) return note_failure(op, "embed response");
    if (!pc_ok(e->log10_pc)) return note_failure(op, "embed log10_pc");
    const lwm::cdfg::Graph* g = graph_of(op.input);
    if (g == nullptr || !schedule_verifies(*g, e->schedule)) {
      return note_failure(op, "witness schedule");
    }
    const auto pc = read_pc(op.responses[2]);
    if (!pc) return note_failure(op, "pc response");
    if (!pc_ok(*pc)) return note_failure(op, "pc log10_pc");
    if (!read_evicted(op.responses[3])) return note_failure(op, "evict response");
  }

  [[nodiscard]] bool dump(const fs::path& dir) const override {
    bool ok = true;
    for (const Design& d : designs_) ok = write_stem(dir / d.stem, d.text, {}, {}) && ok;
    return ok;
  }

 private:
  /// The design graph for the checks, parsed once per design and only
  /// after the timed phase, so the driver holds no graphs while it runs.
  const lwm::cdfg::Graph* graph_of(int input) {
    auto& slot = graphs_[input];
    if (!slot) {
      auto parsed = lwm::cdfg::parse_cdfg(designs_[static_cast<std::size_t>(input)].text);
      if (!parsed.ok()) return nullptr;
      slot = std::make_unique<lwm::cdfg::Graph>(std::move(parsed).value());
    }
    return slot.get();
  }

  std::vector<Design> designs_;
  std::vector<int> order_;
  std::map<int, std::unique_ptr<lwm::cdfg::Graph>> graphs_;
};

/// An analyst querying resident evidence: two embedded designs and their
/// witness schedules stay resident; each operation is one detect request
/// with a seeded subset of 1-8 records, a wrong key on a quarter of them.
class InterrogateWorkload final : public Workload {
 public:
  explicit InterrogateWorkload(std::uint64_t seed) : Workload(seed) {}
  [[nodiscard]] int lanes() const override { return 2; }

  std::string setup(lwm::serve::Client& c) override {
    Rng rng{seed_ * 0x9E3779B1ull + 3};
    for (int i = 0; i < 2; ++i) {
      Resident& r = residents_[i];
      r.design = make_design("interrogate_" + std::to_string(i), kInterrogateOps[i],
                             rng.next());
      const auto loaded = c.call(make_load_design(r.design.text));
      const auto design = loaded ? read_design_loaded(*loaded) : std::nullopt;
      if (!design) return "set-up load_design failed";
      r.id = *design;
      const auto emb = c.call(make_wm_request(MsgType::kEmbed, r.id, key_, kInterrogateMarks));
      auto e = emb ? read_embedded(*emb) : std::nullopt;
      if (!e || e->marks == 0) return "set-up embed failed";
      r.records = std::move(e->records);
      r.schedule = std::move(e->schedule);
      const auto sl = c.call(make_load_schedule(r.id, r.schedule));
      const auto sid = sl ? read_schedule_loaded(*sl) : std::nullopt;
      if (!sid) return "set-up load_schedule failed";
      r.sched_id = *sid;
      auto parsed = lwm::wm::parse_records(r.records, "<records>");
      if (!parsed.ok()) return "set-up records do not parse";
      r.archive = std::move(parsed).value();
    }
    // Blocks of four requests: three to the small design, one to the large
    // one, and one wrong key, each at a seeded position.  A 3:1 mix keeps
    // the median and the 90th percentile inside one design's cluster of
    // latencies instead of in the gap between the two.
    for (auto& specs : specs_) {
      specs.clear();
      Deck subset_size[2] = {Deck(1, 8), Deck(1, 8)};
      for (int b = 0; b < kInterrogateSpecs / 4; ++b) {
        const int wrong = rng.range(0, 3);
        const int large = rng.range(0, 3);
        for (int i = 0; i < 4; ++i) {
          Spec s;
          s.design = i == large ? 1 : 0;
          s.wrong_key = i == wrong;
          const auto& recs = residents_[s.design].archive.sched;
          const int n = std::min<int>(subset_size[s.design].draw(rng),
                                      static_cast<int>(recs.size()));
          lwm::wm::RecordArchive subset;
          std::vector<int> idx(recs.size());
          for (std::size_t q = 0; q < idx.size(); ++q) idx[q] = static_cast<int>(q);
          for (int q = 0; q < n; ++q) {  // partial Fisher-Yates
            std::swap(idx[static_cast<std::size_t>(q)],
                      idx[static_cast<std::size_t>(rng.range(q, static_cast<int>(idx.size()) - 1))]);
            subset.sched.push_back(recs[static_cast<std::size_t>(idx[static_cast<std::size_t>(q)])]);
          }
          s.records = static_cast<std::uint32_t>(n);
          const Resident& r = residents_[s.design];
          s.request = make_detect(r.id, r.sched_id, s.wrong_key ? wrong_key_ : key_,
                                  lwm::wm::to_text(subset));
          specs.push_back(std::move(s));
        }
      }
    }
    return {};
  }

  void run_op(Lane& lane, OpRecord& op, int k) override {
    op.input = k % kInterrogateSpecs;
    call(lane, op, specs_[lane.index][static_cast<std::size_t>(op.input)].request);
    op.input += lane.index * kInterrogateSpecs;
  }

  void check(OpRecord& op, Checks& checks) override {
    if (!op.failure.empty()) return;
    const Spec& s = specs_[static_cast<std::size_t>(op.input / kInterrogateSpecs)]
                          [static_cast<std::size_t>(op.input % kInterrogateSpecs)];
    const auto d = read_detected(op.responses.at(0));
    if (!d || d->records != s.records) return note_failure(op, "detect response");
    checks.full_hits += d->hits;
    if (s.wrong_key) {
      checks.false_hits += d->detected;
      checks.false_trials += d->records;
    } else if (d->detected != d->records) {
      note_failure(op, "right-key record missed");
    }
  }

  [[nodiscard]] bool dump(const fs::path& dir) const override {
    bool ok = true;
    for (const Resident& r : residents_) {
      ok = write_stem(dir / r.design.stem, r.design.text, r.schedule, r.records) && ok;
    }
    return ok;
  }

  void preload(Replayer& rp) const override;

 private:
  struct Resident {
    Design design;
    std::uint64_t id = 0;
    std::uint64_t sched_id = 0;
    std::string records;
    std::string schedule;
    lwm::wm::RecordArchive archive;
  };
  struct Spec {
    int design = 0;
    bool wrong_key = false;
    std::uint32_t records = 0;
    Frame request;
  };
  Resident residents_[2];
  std::vector<Spec> specs_[2];
};

// --- Replay -------------------------------------------------------------------

/// Re-runs each recorded request's handler steps in-process through the
/// modules' public functions, one span per call, so per-layer time is
/// measured from outside the daemon.  Uses its own two-thread pool and
/// DesignStore, like the daemon.
class Replayer {
 public:
  explicit Replayer(SpanLog& log) : log_(log), pool_(kServeThreads) {}

  void preload(std::string_view design_text, std::string_view schedule_text) {
    auto d = store_.load_design(design_text);
    if (!d.ok()) return;
    const auto design = std::move(d).value();
    auto s = lwm::sched::parse_schedule(design->graph, schedule_text);
    if (s.ok()) {
      schedules_[{design->id, lwm::serve::content_hash(schedule_text)}] = std::move(s).value();
    }
  }

  /// Replays one request/response pair under `parent`.
  void replay(const Frame& request, const Frame& response, int parent, long op) {
    Scoped top(&log_, std::string("replay.") + type_name(request.type), parent, 0, op);
    const int p = top.id();
    std::string req_bytes, resp_bytes;
    {
      Scoped s(&log_, "serve.frame_encode", p, 0, op);
      req_bytes = lwm::serve::encode_frame(request);
      resp_bytes = lwm::serve::encode_frame(response);
    }
    lwm::serve::DecodeResult req;
    {
      Scoped s(&log_, "serve.frame_decode", p, 0, op);
      req = lwm::serve::decode_frame(req_bytes);
      (void)lwm::serve::decode_frame(resp_bytes);
    }
    PayloadReader r(req.frame.payload);
    switch (request.type) {
      case MsgType::kLoadDesign: {
        const std::string_view text = r.get_str();
        {
          Scoped s(&log_, "cdfg.parse", p, 0, op);
          s.a = static_cast<std::int64_t>(text.size());
          (void)lwm::cdfg::parse_cdfg(text, "<design>");
        }
        Scoped s(&log_, "serve.store_load", p, 0, op);
        (void)store_.load_design(text);
        break;
      }
      case MsgType::kLoadSchedule: {
        const std::uint64_t design_id = r.get_u64();
        const std::string_view text = r.get_str();
        const auto design = store_.find_design(design_id);
        if (!design) break;
        Scoped s(&log_, "sched.parse", p, 0, op);
        s.a = std::count(text.begin(), text.end(), '\n');
        auto parsed = lwm::sched::parse_schedule(design->graph, text);
        if (parsed.ok()) {
          schedules_[{design_id, lwm::serve::content_hash(text)}] = std::move(parsed).value();
        }
        break;
      }
      case MsgType::kDetect: {
        const std::uint64_t design_id = r.get_u64();
        const std::uint64_t sched_id = r.get_u64();
        const lwm::crypto::Signature sig("serve-client", std::string(r.get_str()));
        const std::string_view records_text = r.get_str();
        const auto design = store_.find_design(design_id);
        const auto it = schedules_.find({design_id, sched_id});
        if (!design || it == schedules_.end()) break;
        lwm::wm::RecordArchive archive;
        {
          Scoped s(&log_, "wm.records_parse", p, 0, op);
          auto parsed = lwm::wm::parse_records(records_text, "<records>");
          if (parsed.ok()) archive = std::move(parsed).value();
        }
        Scoped s(&log_, "wm.detect", p, 0, op);
        (void)lwm::wm::detect_sched_watermarks(design->graph, it->second, sig,
                                               archive.sched, &pool_);
        break;
      }
      case MsgType::kEmbed:
      case MsgType::kPc: {
        const std::uint64_t design_id = r.get_u64();
        const lwm::crypto::Signature sig("serve-client", std::string(r.get_str()));
        const int marks_wanted = static_cast<int>(r.get_u32());
        lwm::wm::SchedWmOptions opts;
        opts.domain.tau = static_cast<int>(r.get_u32());
        opts.k = static_cast<int>(r.get_u32());
        opts.epsilon = r.get_f64();
        const auto design = store_.find_design(design_id);
        if (!design) break;
        std::optional<lwm::cdfg::Graph> marked;
        {
          Scoped s(&log_, "cdfg.graph_copy", p, 0, op);
          marked.emplace(design->graph);
        }
        std::vector<lwm::wm::SchedWatermark> marks;
        {
          Scoped s(&log_, "wm.embed", p, 0, op);
          marks = lwm::wm::embed_local_watermarks_parallel(*marked, sig, marks_wanted, opts,
                                                           &pool_, design->plan);
        }
        if (request.type == MsgType::kPc) {
          Scoped s(&log_, "wm.pc_auto", p, 0, op);
          for (const auto& m : marks) (void)lwm::wm::sched_pc_auto(*marked, m);
          break;
        }
        lwm::wm::RecordArchive archive;
        {
          Scoped s(&log_, "wm.records_build", p, 0, op);
          for (const auto& m : marks) {
            archive.sched.push_back(lwm::wm::SchedRecord::from(m, *marked));
          }
        }
        std::optional<lwm::sched::BackendResult> witness;
        {
          Scoped s(&log_, "sched.witness", p, 0, op);
          witness.emplace(lwm::sched::schedule_with("enumerate", *marked));
        }
        {
          Scoped s(&log_, "wm.pc_window", p, 0, op);
          (void)lwm::wm::sched_pc_window_model(*marked, marks);
        }
        {
          Scoped s(&log_, "wm.records_serialize", p, 0, op);
          (void)lwm::wm::to_text(archive);
        }
        Scoped s(&log_, "sched.serialize", p, 0, op);
        (void)lwm::sched::schedule_to_text(*marked, witness->schedule);
        break;
      }
      case MsgType::kEvict: {
        const std::uint64_t design_id = r.get_u64();
        Scoped s(&log_, "serve.store_evict", p, 0, op);
        (void)store_.evict_design(design_id);
        std::erase_if(schedules_, [&](const auto& kv) { return kv.first.first == design_id; });
        break;
      }
      default:
        break;
    }
  }

 private:
  SpanLog& log_;
  lwm::exec::ThreadPool pool_;
  lwm::serve::DesignStore store_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, lwm::sched::Schedule> schedules_;
};

void InterrogateWorkload::preload(Replayer& rp) const {
  for (const Resident& r : residents_) rp.preload(r.design.text, r.schedule);
}

// --- Run ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".";
  std::string dump_dir;
  long min_ops = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "scan") return std::make_unique<ScanWorkload>(seed);
  if (name == "protect") return std::make_unique<ProtectWorkload>(seed);
  if (name == "interrogate") return std::make_unique<InterrogateWorkload>(seed);
  return nullptr;
}

std::optional<std::string> fetch_stats(lwm::serve::Client& c) {
  const auto f = c.call(Frame{MsgType::kStats, {}});
  return f ? read_stats(*f) : std::nullopt;
}

int fail(const std::string& why) {
  std::fprintf(stderr, "svcbench_driver: %s\n", why.c_str());
  return 1;
}

int run(const Options& o) {
  std::error_code ec;
  fs::create_directories(o.run_dir, ec);
  const std::string socket = o.run_dir + "/lwm-" + std::to_string(getpid()) + ".sock";
  const std::string daemon_log = o.run_dir + "/lwm-serve.log";
  const std::string binary = SVCBENCH_SERVE_BIN;

  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  if (!w) return fail("unknown workload '" + o.workload + "'");

  // Set-up: spawn the daemon, build the inputs, make the daemon ready.
  // Untraced runs repeat it and report every time; the last daemon stays
  // up for the timed phase.
  const int repeats = o.trace || !o.dump_dir.empty() ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::optional<lwm::serve::Client> control;
  for (int rep = 0; rep < repeats; ++rep) {
    control.reset();
    daemon.reset();
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(binary, socket, daemon_log);
    control = daemon->connect();
    if (!control) return fail("lwm-serve did not start (see " + daemon_log + ")");
    if (const std::string err = w->setup(*control); !err.empty()) return fail(err);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  if (!o.dump_dir.empty()) {
    fs::create_directories(o.dump_dir, ec);
    if (!w->dump(o.dump_dir)) return fail("cannot write inputs to " + o.dump_dir);
    std::fprintf(stderr, "svcbench_driver: wrote %s inputs to %s (key svcbench-%llu)\n",
                 o.workload.c_str(), o.dump_dir.c_str(),
                 static_cast<unsigned long long>(o.seed));
    return 0;
  }

  SpanLog log;
  SpanLog* trace_log = o.trace ? &log : nullptr;
  std::string stats_before = "null", stats_after = "null";
  if (o.trace) {
    const auto s = fetch_stats(*control);
    if (!s) return fail("stats request failed");
    stats_before = *s;
  }

  // Timed phase: closed loops, one per connection; lane 0 reuses the
  // set-up connection, so the daemon never sees more than two.
  std::vector<Lane> lanes(static_cast<std::size_t>(w->lanes()));
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].index = static_cast<int>(i);
    lanes[i].socket = socket;
    lanes[i].log = trace_log;
    if (i == 0) {
      lanes[i].client = std::move(*control);
    } else {
      auto c = daemon->connect();
      if (!c) return fail("second connection failed");
      lanes[i].client = std::move(*c);
    }
  }
  std::vector<std::vector<OpRecord>> per_lane(lanes.size());
  std::atomic<long> next_id{0};
  const std::int64_t phase_start = now_ns();
  const std::int64_t deadline = phase_start + static_cast<std::int64_t>(o.seconds * 1e9);
  // On a machine slow enough that min_ops operations have not completed
  // by the deadline, the loops run on, for at most as long again, so the
  // tail percentile keeps its samples; run.py fails a run that still
  // falls short.
  std::atomic<long> completed{0};
  const auto more = [&] {
    const std::int64_t t = now_ns();
    return t < deadline ||
           (completed.load() < o.min_ops && t < deadline + (deadline - phase_start));
  };
  {
    Scoped phase(trace_log, "phase", -1);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      threads.emplace_back([&, i] {
        Lane& lane = lanes[i];
        for (int k = 0; more(); ++k) {
          OpRecord op;
          op.lane = lane.index;
          op.id = next_id.fetch_add(1);
          op.keep_requests = o.trace && static_cast<std::size_t>(op.id) < kReplayCap;
          Scoped span(trace_log, "op", phase.id(), lane.index, op.id);
          op.span = span.id();
          op.start = now_ns();
          w->run_op(lane, op, k);
          op.dur = now_ns() - op.start;
          per_lane[i].push_back(std::move(op));
          completed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::int64_t phase_end = phase_start;
  for (const auto& ops : per_lane) {
    for (const OpRecord& op : ops) phase_end = std::max(phase_end, op.start + op.dur);
  }

  if (o.trace) {
    const auto s = fetch_stats(lanes[0].client);
    if (!s) return fail("stats request failed");
    stats_after = *s;
  }
  for (Lane& lane : lanes) lane.client.close();
  const long peak_rss_kb = daemon->peak_rss_kb();
  daemon.reset();

  std::vector<OpRecord> ops;
  for (auto& lane_ops : per_lane) {
    for (OpRecord& op : lane_ops) ops.push_back(std::move(op));
  }
  std::sort(ops.begin(), ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.id < b.id; });

  Checks checks;
  for (OpRecord& op : ops) w->check(op, checks);

  // Replay (traced runs): the first operations, in id order, for at most
  // half the run length; the daemon is already stopped, so nothing
  // competes with the replay for the cores.
  std::size_t replayed = 0;
  if (o.trace) {
    Replayer rp(log);
    w->preload(rp);
    const std::int64_t budget = now_ns() + static_cast<std::int64_t>(o.seconds * 0.5e9);
    Scoped root(&log, "replay", -1);
    for (const OpRecord& op : ops) {
      if (!op.keep_requests || (replayed > 0 && now_ns() > budget)) break;
      if (!op.failure.empty()) continue;
      for (std::size_t i = 0; i < op.requests.size(); ++i) {
        rp.replay(op.requests[i], op.responses[i], root.id(), op.id);
      }
      ++replayed;
    }
  }

  std::size_t failed = 0;
  std::map<std::string, int> reasons;
  for (const OpRecord& op : ops) {
    if (!op.failure.empty()) {
      ++failed;
      ++reasons[op.failure];
    }
  }

  std::string out = "{\"workload\":" + json_str(o.workload) +
                    ",\"seed\":" + std::to_string(o.seed) +
                    ",\"seconds\":" + std::to_string(o.seconds) +
                    ",\"trace\":" + (o.trace ? "1" : "0") +
                    ",\"lanes\":" + std::to_string(lanes.size()) +
                    ",\"serve_threads\":" + std::to_string(kServeThreads) +
                    ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", i ? "," : "", setup_s[i]);
    out += buf;
  }
  out += "],\"phase_ns\":" + std::to_string(phase_end - phase_start) +
         ",\"attempted\":" + std::to_string(ops.size()) +
         ",\"failed\":" + std::to_string(failed) + ",\"failures\":{";
  bool first = true;
  for (const auto& [why, n] : reasons) {
    out += (first ? "" : ",") + json_str(why) + ":" + std::to_string(n);
    first = false;
  }
  out += "},\"false_hits\":" + std::to_string(checks.false_hits) +
         ",\"false_trials\":" + std::to_string(checks.false_trials) +
         ",\"full_hits\":" + std::to_string(checks.full_hits) +
         ",\"peak_rss_kb\":" + std::to_string(peak_rss_kb) +
         ",\"replayed_ops\":" + std::to_string(replayed) + ",\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    out += (i ? ",[" : "[") + std::to_string(op.lane) + "," + std::to_string(op.id) + "," +
           std::to_string(op.input) + "," + std::to_string(op.start - phase_start) + "," +
           std::to_string(op.dur) + "," + (op.failure.empty() ? "1" : "0") + "]";
  }
  out += "],\"stats_before\":" + stats_before + ",\"stats_after\":" + stats_after +
         ",\"spans\":";
  log.write_json(out);
  out += "}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: svcbench_driver --workload scan|protect|interrogate --seed N\n"
               "         --seconds S --trace 0|1 --run-dir DIR [--min-ops N] [--dump DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--run-dir") {
        o.run_dir = value;
      } else if (flag == "--dump") {
        o.dump_dir = value;
      } else if (flag == "--min-ops") {
        o.min_ops = std::stol(value);
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !(o.seconds > 0)) {
    usage();
    return 2;
  }
  // A daemon that dies mid-write must not kill the driver.
  signal(SIGPIPE, SIG_IGN);
  // Caught here so the stack unwinds and ~Daemon stops the daemon.
  try {
    return run(o);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
