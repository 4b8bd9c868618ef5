#include "sched/schedule_io.h"

#include <istream>
#include <ostream>
#include <bit>
#include <functional>
#include <sstream>
#include <vector>

#include "io/source.h"
#include "io/text.h"

namespace lwm::sched {

void write_schedule(const cdfg::Graph& g, const Schedule& s, std::ostream& os) {
  os << "schedule " << (g.name().empty() ? "unnamed" : g.name()) << "\n";
  for (cdfg::NodeId n : g.nodes()) {
    if (!s.is_scheduled(n)) continue;
    os << "at " << g.node(n).name << " " << s.start_of(n) << "\n";
  }
}

std::string schedule_to_text(const cdfg::Graph& g, const Schedule& s) {
  std::ostringstream os;
  write_schedule(g, s, os);
  return os.str();
}

io::ParseResult<Schedule> parse_schedule(const cdfg::Graph& g,
                                         std::string_view text,
                                         std::string_view source_name) {
  Schedule s(g);
  // One open-addressed name index per parse keeps the parse linear; the
  // first live node wins a duplicated name, as in Graph::find.
  std::vector<cdfg::NodeId> by_name(std::bit_ceil(2 * g.node_count() + 1));
  const auto slot_of = [&](std::string_view name) -> cdfg::NodeId& {
    for (std::size_t i = std::hash<std::string_view>{}(name);; ++i) {
      cdfg::NodeId& slot = by_name[i & (by_name.size() - 1)];
      if (!slot.valid() || g.node(slot).name == name) return slot;
    }
  };
  for (const cdfg::NodeId n : g.nodes()) {
    if (cdfg::NodeId& slot = slot_of(g.node(n).name); !slot.valid()) slot = n;
  }
  io::LineCursor lines(text);
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
      const cdfg::NodeId n = slot_of(name->text);
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
  if (!saw_header) {
    return err(0, 0, "missing 'schedule' header");
  }
  return s;
}

Schedule read_schedule(const cdfg::Graph& g, std::istream& is) {
  auto text = io::read_stream(is, "<schedule>");
  if (!text) throw io::ParseError(text.diag());
  return parse_schedule(g, text.value(), "<schedule>").take_or_throw();
}

Schedule schedule_from_text(const cdfg::Graph& g, const std::string& text) {
  return parse_schedule(g, text, "<schedule>").take_or_throw();
}

}  // namespace lwm::sched
