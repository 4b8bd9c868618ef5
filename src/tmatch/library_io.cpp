#include "tmatch/library_io.h"

#include <optional>
#include <sstream>
#include <stdexcept>

namespace lwm::tmatch {

std::string library_to_text(const TemplateLibrary& lib) {
  std::ostringstream os;
  os << "templates v1\n";
  for (int i = 0; i < lib.size(); ++i) {
    const Template& t = lib.at(i);
    os << "template " << t.name << " " << t.area << "\n";
    for (const TemplateOp& op : t.ops) {
      os << "op " << cdfg::op_name(op.kind);
      for (const int c : op.children) os << " " << c;
      os << "\n";
    }
  }
  return os.str();
}

io::ParseResult<TemplateLibrary> parse_library(io::LineCursor lines,
                                               std::string_view source_name) {
  TemplateLibrary lib;
  const auto err = [&](int line, int col, std::string msg) {
    return io::Diagnostic{std::string(source_name), line, col, std::move(msg)};
  };

  {
    const auto header = lines.next();
    if (const auto& e = lines.error()) {
      return err(e->line, e->column, e->message);
    }
    if (!header || *header != "templates v1") {
      return err(header ? 1 : 0, 0, "missing 'templates v1' header");
    }
  }

  Template current;
  bool open = false;
  const auto flush = [&](int at_line) -> std::optional<io::Diagnostic> {
    if (!open) return std::nullopt;
    try {
      lib.add(current);
    } catch (const std::invalid_argument& e) {
      // TemplateLibrary::add validates tree shape (children in range,
      // acyclic, reachable); surface its message at the template's span.
      return err(at_line, 0, e.what());
    }
    current = Template{};
    open = false;
    return std::nullopt;
  };

  while (const auto line = lines.next()) {
    const int lineno = lines.line_number();
    io::LineLexer lx(*line);
    const auto tok = lx.next();
    if (!tok || tok->text[0] == '#') continue;
    if (tok->text == "template") {
      if (const auto d = flush(lineno)) return *d;
      const auto name = lx.next();
      const auto area_tok = lx.next();
      if (!name || !area_tok) {
        return err(lineno, lx.column(), "template needs <name> <area>");
      }
      const auto area = io::to_double(area_tok->text);
      if (!area || *area < 0.0) {
        return err(lineno, area_tok->column,
                   "area must be a non-negative number, got '" +
                       std::string(area_tok->text) + "'");
      }
      if (!lx.at_end()) {
        return err(lineno, lx.column(), "trailing garbage after area");
      }
      current.name = std::string(name->text);
      current.area = *area;
      open = true;
    } else if (tok->text == "op") {
      if (!open) return err(lineno, tok->column, "op before any template header");
      const auto kind_name = lx.next();
      if (!kind_name) return err(lineno, lx.column(), "op needs a kind");
      const auto kind = cdfg::op_from_name(kind_name->text);
      if (!kind) {
        return err(lineno, kind_name->column,
                   "unknown op kind '" + std::string(kind_name->text) + "'");
      }
      TemplateOp op;
      op.kind = *kind;
      while (const auto child = lx.next()) {
        const auto v = io::to_int(child->text);
        if (!v) {
          return err(lineno, child->column,
                     "child indices must be integers, got '" +
                         std::string(child->text) + "'");
        }
        op.children.push_back(*v);
      }
      current.ops.push_back(std::move(op));
    } else {
      return err(lineno, tok->column,
                 "unknown directive '" + std::string(tok->text) + "'");
    }
  }
  if (const auto& e = lines.error()) return err(e->line, e->column, e->message);
  if (const auto d = flush(lines.line_number())) return *d;
  return lib;
}

}  // namespace lwm::tmatch
