#include "wm/records_io.h"

#include <optional>
#include <ostream>
#include <sstream>

namespace lwm::wm {

namespace {

void write_common(std::ostream& os,
                  const std::vector<std::pair<int, int>>& positions,
                  const std::vector<int>& subtree_ops) {
  for (const auto& [s, t] : positions) {
    os << "pos " << s << " " << t << "\n";
  }
  os << "ops";
  for (const int id : subtree_ops) os << " " << id;
  os << "\n";
}

/// Parses "k=v" tokens like tau=8 keep=1/2 m=4 pairs=3.
struct Fields {
  int tau = -1;
  std::uint32_t keep_num = 0;
  std::uint32_t keep_den = 0;
  int m = -1;
  int pairs = -1;
};

}  // namespace

std::string to_text(const RecordArchive& archive) {
  std::ostringstream os;
  os << "lwm-records v1\n";
  for (const SchedRecord& r : archive.sched) {
    os << "sched tau=" << r.domain.tau << " keep=" << r.domain.keep_num << "/"
       << r.domain.keep_den << " pairs=" << r.positions.size() << "\n";
    write_common(os, r.positions, r.subtree_ops);
  }
  for (const RegRecord& r : archive.reg) {
    os << "reg tau=" << r.domain.tau << " keep=" << r.domain.keep_num << "/"
       << r.domain.keep_den << " m=" << r.m << " pairs=" << r.positions.size()
       << "\n";
    write_common(os, r.positions, r.subtree_ops);
  }
  return os.str();
}

io::ParseResult<RecordArchive> parse_records(io::LineCursor lines,
                                             std::string_view source_name) {
  RecordArchive archive;
  const auto err = [&](int line, int col, std::string msg) {
    return io::Diagnostic{std::string(source_name), line, col, std::move(msg)};
  };

  {
    const auto header = lines.next();
    if (const auto& e = lines.error()) {
      return err(e->line, e->column, e->message);
    }
    if (!header || *header != "lwm-records v1") {
      return err(header ? 1 : 0, 0, "missing 'lwm-records v1' header");
    }
  }

  enum class Mode { kNone, kSched, kReg } mode = Mode::kNone;
  SchedRecord cur_sched;
  RegRecord cur_reg;
  int expected_pairs = 0;
  int seen_pairs = 0;
  bool seen_ops = false;

  // The seed's uncaught-std::stoi crash lived here: tau=x threw
  // invalid_argument, keep=3/ called stoul(""), tau=99…9 threw
  // out_of_range, and keep=1/0 sailed through into ratio arithmetic.
  // All four are now located diagnostics from strict conversions.
  const auto parse_fields = [&](io::LineLexer& lx,
                                int lineno) -> io::ParseResult<Fields> {
    Fields f;
    while (const auto tok = lx.next()) {
      const auto eq = tok->text.find('=');
      if (eq == std::string_view::npos) {
        return err(lineno, tok->column,
                   "expected key=value, got '" + std::string(tok->text) + "'");
      }
      const std::string_view key = tok->text.substr(0, eq);
      const std::string_view value = tok->text.substr(eq + 1);
      const int value_col = tok->column + static_cast<int>(eq) + 1;
      if (key == "tau") {
        const auto v = io::to_int(value);
        if (!v || *v <= 0) {
          return err(lineno, value_col,
                     "tau must be a positive integer, got '" +
                         std::string(value) + "'");
        }
        f.tau = *v;
      } else if (key == "keep") {
        const auto slash = value.find('/');
        if (slash == std::string_view::npos) {
          return err(lineno, value_col, "keep needs num/den");
        }
        const auto num = io::to_u32(value.substr(0, slash));
        const auto den = io::to_u32(value.substr(slash + 1));
        if (!num || !den) {
          return err(lineno, value_col,
                     "keep needs unsigned num/den, got '" + std::string(value) +
                         "'");
        }
        if (*den == 0) {
          return err(lineno, value_col + static_cast<int>(slash) + 1,
                     "keep denominator must be nonzero");
        }
        f.keep_num = *num;
        f.keep_den = *den;
      } else if (key == "m") {
        const auto v = io::to_int(value);
        if (!v || *v < 0) {
          return err(lineno, value_col,
                     "m must be a non-negative integer, got '" +
                         std::string(value) + "'");
        }
        f.m = *v;
      } else if (key == "pairs") {
        const auto v = io::to_int(value);
        if (!v || *v < 0) {
          return err(lineno, value_col,
                     "pairs must be a non-negative integer, got '" +
                         std::string(value) + "'");
        }
        f.pairs = *v;
      } else {
        return err(lineno, tok->column, "unknown field '" + std::string(key) + "'");
      }
    }
    if (f.tau <= 0 || f.keep_den == 0 || f.pairs < 0) {
      return err(lineno, 0, "missing tau/keep/pairs");
    }
    return f;
  };

  const auto flush = [&](int at_line) -> std::optional<io::Diagnostic> {
    if (mode == Mode::kNone) return std::nullopt;
    if (seen_pairs != expected_pairs) {
      return err(at_line, 0,
                 "expected " + std::to_string(expected_pairs) +
                     " pos lines, saw " + std::to_string(seen_pairs));
    }
    if (!seen_ops) return err(at_line, 0, "record missing ops line");
    if (mode == Mode::kSched) {
      archive.sched.push_back(std::move(cur_sched));
      cur_sched = SchedRecord{};
    } else {
      archive.reg.push_back(std::move(cur_reg));
      cur_reg = RegRecord{};
    }
    seen_pairs = 0;
    seen_ops = false;
    return std::nullopt;
  };

  while (const auto line = lines.next()) {
    const int lineno = lines.line_number();
    io::LineLexer lx(*line);
    const auto tok = lx.next();
    if (!tok || tok->text[0] == '#') continue;
    if (tok->text == "sched" || tok->text == "reg") {
      if (const auto d = flush(lineno)) return *d;
      auto fields = parse_fields(lx, lineno);
      if (!fields) return fields.diag();
      const Fields f = fields.value();
      DomainKey key;
      key.tau = f.tau;
      key.keep_num = f.keep_num;
      key.keep_den = f.keep_den;
      expected_pairs = f.pairs;
      if (tok->text == "sched") {
        mode = Mode::kSched;
        cur_sched.domain = key;
      } else {
        if (f.m < 0) return err(lineno, 0, "reg record missing m");
        mode = Mode::kReg;
        cur_reg.domain = key;
        cur_reg.m = f.m;
      }
    } else if (tok->text == "pos") {
      if (mode == Mode::kNone) {
        return err(lineno, tok->column, "pos before record header");
      }
      const auto s = lx.next();
      if (!s) return err(lineno, lx.column(), "pos needs two integers");
      const auto sv = io::to_int(s->text);
      if (!sv) return err(lineno, s->column, "pos needs two integers");
      if (*sv < 0) return err(lineno, s->column, "pos must be non-negative");
      const auto t = lx.next();
      if (!t) return err(lineno, lx.column(), "pos needs two integers");
      const auto tv = io::to_int(t->text);
      if (!tv) return err(lineno, t->column, "pos needs two integers");
      if (*tv < 0) return err(lineno, t->column, "pos must be non-negative");
      if (!lx.at_end()) {
        return err(lineno, lx.column(), "trailing garbage after pos pair");
      }
      if (mode == Mode::kSched) {
        cur_sched.positions.emplace_back(*sv, *tv);
      } else {
        cur_reg.positions.emplace_back(*sv, *tv);
      }
      ++seen_pairs;
    } else if (tok->text == "ops") {
      if (mode == Mode::kNone) {
        return err(lineno, tok->column, "ops before record header");
      }
      if (seen_ops) return err(lineno, tok->column, "duplicate ops line");
      std::vector<int>& target =
          mode == Mode::kSched ? cur_sched.subtree_ops : cur_reg.subtree_ops;
      while (const auto id = lx.next()) {
        const auto v = io::to_int(id->text);
        if (!v) {
          return err(lineno, id->column,
                     "ops ids must be integers, got '" + std::string(id->text) +
                         "'");
        }
        if (*v < 1 || *v > cdfg::kNumOpKinds) {
          return err(lineno, id->column,
                     "ops ids must lie in [1, " + std::to_string(cdfg::kNumOpKinds) +
                         "], got " + std::to_string(*v));
        }
        target.push_back(*v);
      }
      if (target.empty()) return err(lineno, tok->column, "ops line is empty");
      seen_ops = true;
    } else {
      return err(lineno, tok->column,
                 "unknown directive '" + std::string(tok->text) + "'");
    }
  }
  if (const auto& e = lines.error()) return err(e->line, e->column, e->message);
  if (const auto d = flush(lines.line_number())) return *d;
  return archive;
}

}  // namespace lwm::wm
