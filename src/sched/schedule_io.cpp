#include "sched/schedule_io.h"

#include <utility>

#include "cdfg/name_index.h"
#include "obs/obs.h"

namespace lwm::sched {

std::string schedule_to_text(const cdfg::Graph& g, const Schedule& s) {
  std::size_t bytes = 32 + g.name().size();
  for (cdfg::NodeId n : g.nodes()) {
    if (s.is_scheduled(n)) bytes += g.node(n).name.size() + 16;
  }
  io::TextWriter w(bytes);
  w << "schedule " << (g.name().empty() ? "unnamed" : g.name()) << '\n';
  for (cdfg::NodeId n : g.nodes()) {
    if (!s.is_scheduled(n)) continue;
    w << "at " << g.node(n).name << ' ' << s.start_of(n) << '\n';
  }
  return std::move(w).take();
}

io::ParseResult<Schedule> parse_schedule(const cdfg::Graph& g,
                                         io::LineCursor lines,
                                         std::string_view source_name) {
  LWM_SPAN("sched/parse");
  Schedule s(g);
  // One name index per parse keeps the parse linear.
  const cdfg::NameIndex by_name(g);
  bool saw_header = false;
  const auto err = [&](int line, int col, std::string msg) {
    return io::Diagnostic{std::string(source_name), line, col, std::move(msg)};
  };
  while (const auto line = lines.next()) {
    const int lineno = lines.line_number();
    io::LineLexer lx(*line);
    const auto tok = lx.next();
    if (!tok || tok->text[0] == '#') continue;
    if (tok->text == "schedule") {
      if (saw_header) {
        return err(lineno, tok->column, "duplicate 'schedule' header");
      }
      lx.next();  // optional graph name, informational only
      if (!lx.at_end()) {
        return err(lineno, lx.column(), "trailing garbage after graph name");
      }
      saw_header = true;
    } else if (tok->text == "at") {
      if (!saw_header) {
        return err(lineno, tok->column, "'at' before 'schedule' header");
      }
      const auto name = lx.next();
      const auto step_tok = lx.next();
      if (!name || !step_tok) {
        return err(lineno, lx.column(), "at needs <name> <step>");
      }
      const auto step = io::to_int(step_tok->text);
      if (!step || *step < 0) {
        // Schedule stores -1 as "unscheduled", so a negative start would
        // silently vanish instead of round-tripping.
        return err(lineno, step_tok->column,
                   "step must be a non-negative integer, got '" +
                       std::string(step_tok->text) + "'");
      }
      if (!lx.at_end()) {
        return err(lineno, lx.column(), "trailing garbage after step");
      }
      const cdfg::NodeId n = by_name.find(g, name->text);
      if (!n.valid()) {
        return err(lineno, name->column,
                   "unknown node '" + std::string(name->text) + "'");
      }
      if (s.is_scheduled(n)) {
        return err(lineno, name->column,
                   "node '" + std::string(name->text) + "' scheduled twice");
      }
      s.set_start(n, *step);
    } else {
      return err(lineno, tok->column,
                 "unknown directive '" + std::string(tok->text) + "'");
    }
  }
  if (const auto& e = lines.error()) return err(e->line, e->column, e->message);
  if (!saw_header) {
    return err(0, 0, "missing 'schedule' header");
  }
  return s;
}

}  // namespace lwm::sched
