#include "obs/export.h"

#if LWM_OBS_ENABLED

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace lwm::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microseconds with ns resolution, as chrome://tracing expects.
void append_us(std::string& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out += buf;
}

}  // namespace

std::string registry_json() {
  Registry& reg = Registry::instance();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const Counter* c : reg.counters()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(c->name()) + "\":" + std::to_string(c->total());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const Histogram* h : reg.histograms()) {
    if (!first) out += ",";
    first = false;
    const Histogram::Snapshot s = h->snapshot();
    char mean[32];
    std::snprintf(mean, sizeof mean, "%.3f",
                  s.count == 0 ? 0.0
                               : static_cast<double>(s.sum) /
                                     static_cast<double>(s.count));
    out += "\"" + json_escape(h->name()) + "\":{\"count\":" +
           std::to_string(s.count) + ",\"sum\":" + std::to_string(s.sum) +
           ",\"mean\":" + mean + ",\"max\":" + std::to_string(s.max) +
           ",\"log2_buckets\":{";
    bool bfirst = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      if (!bfirst) out += ",";
      bfirst = false;
      out += "\"" + std::to_string(b) + "\":" + std::to_string(s.buckets[b]);
    }
    out += "}}";
  }
  out += "},\"spans\":{";
  first = true;
  for (const SpanSite* s : reg.span_sites()) {
    if (!first) out += ",";
    first = false;
    char ms[32];
    std::snprintf(ms, sizeof ms, "%.3f",
                  static_cast<double>(s->total_ns()) / 1e6);
    out += "\"" + json_escape(s->name()) + "\":{\"count\":" +
           std::to_string(s->count()) + ",\"total_ms\":" + ms + "}";
  }
  out += "},\"trace_dropped\":" + std::to_string(reg.dropped_events()) + "}";
  return out;
}

void write_trace_events(std::ostream& os,
                        const std::vector<TraceEvent>& events) {
  // Thread of each span id, for cross-thread flow arrows.
  std::unordered_map<std::uint64_t, std::uint32_t> tid_of;
  tid_of.reserve(events.size());
  for (const TraceEvent& ev : events) tid_of.emplace(ev.id, ev.tid);

  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"lwm\"}}";
  for (const TraceEvent& ev : events) {
    out += ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    out += ",\"name\":\"";
    out += json_escape(ev.name);
    out += "\",\"cat\":\"lwm\",\"ts\":";
    append_us(out, ev.start_ns);
    out += ",\"dur\":";
    append_us(out, ev.dur_ns);
    out += ",\"args\":{\"id\":";
    out += std::to_string(ev.id);
    out += ",\"parent\":";
    out += std::to_string(ev.parent);
    out += "}}";
    // A parent recorded on another thread means this span crossed a
    // ThreadPool::submit boundary; a flow arrow makes the logical
    // parent-child edge visible in the viewer.
    const auto it = ev.parent == 0 ? tid_of.end() : tid_of.find(ev.parent);
    if (it != tid_of.end() && it->second != ev.tid) {
      out += ",\n{\"ph\":\"s\",\"pid\":1,\"tid\":";
      out += std::to_string(it->second);
      out += ",\"name\":\"submit\",\"cat\":\"flow\",\"id\":";
      out += std::to_string(ev.id);
      out += ",\"ts\":";
      append_us(out, ev.start_ns);
      out += "},\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":";
      out += std::to_string(ev.tid);
      out += ",\"name\":\"submit\",\"cat\":\"flow\",\"id\":";
      out += std::to_string(ev.id);
      out += ",\"ts\":";
      append_us(out, ev.start_ns);
      out += "}";
    }
  }
  out += "\n]}\n";
  os << out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write trace %s\n", path.c_str());
    return false;
  }
  write_trace_events(f, Registry::instance().trace_events());
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace lwm::obs

#endif  // LWM_OBS_ENABLED
