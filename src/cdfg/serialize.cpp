#include "cdfg/serialize.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "cdfg/analysis.h"
#include "io/text.h"

namespace lwm::cdfg {

void write_text(const Graph& g, std::ostream& os) {
  os << "cdfg " << (g.name().empty() ? "unnamed" : g.name()) << "\n";
  for (NodeId n : g.nodes()) {
    const Node& node = g.node(n);
    os << "node " << node.name << " " << op_name(node.kind);
    if (node.bounded_delay()) {
      // Bounded interval: always written, even when d_max happens to
      // equal the opcode default — the interval itself is information.
      os << " " << node.delay_min << ":" << node.delay;
    } else if (node.delay != default_delay(node.kind)) {
      os << " " << node.delay;
    }
    os << "\n";
  }
  for (EdgeId e : g.edges()) {
    const Edge& ed = g.edge(e);
    os << "edge " << g.node(ed.src).name << " " << g.node(ed.dst).name;
    if (ed.kind != EdgeKind::kData) {
      os << " " << edge_kind_name(ed.kind);
    }
    if (ed.tokens > 0) {
      // Marked-graph back-edge: the token count is the final field (the
      // kind may be elided for data edges — a bare trailing integer is
      // unambiguous because no edge kind starts with a digit).
      os << " " << ed.tokens;
    }
    os << "\n";
  }
}

std::string to_text(const Graph& g) {
  std::ostringstream os;
  write_text(g, os);
  return os.str();
}

io::ParseResult<Graph> parse_cdfg(io::LineCursor lines,
                                  std::string_view source_name) {
  const auto err = [&](int line, int col, std::string msg) {
    return io::Diagnostic{std::string(source_name), line, col, std::move(msg)};
  };
  Graph g;
  std::unordered_map<std::string, NodeId> by_name;
  // Source line of every parsed edge, indexed by EdgeId::value — locates
  // the back-edge that closes an unintended cycle.
  std::vector<int> edge_lines;
  // Every path length is at most the sum of all d_max, so keeping the
  // sum within int keeps every ASAP/ALAP value downstream within int.
  std::int64_t total_delay = 0;
  bool saw_header = false;
  while (const auto line = lines.next()) {
    const int lineno = lines.line_number();
    io::LineLexer lx(*line);
    const auto tok = lx.next();
    if (!tok || tok->text[0] == '#') continue;
    if (tok->text == "cdfg") {
      if (saw_header) return err(lineno, tok->column, "duplicate 'cdfg' header");
      const auto name = lx.next();
      if (!name) return err(lineno, lx.column(), "missing graph name");
      if (!lx.at_end()) {
        return err(lineno, lx.column(), "trailing garbage after graph name");
      }
      g.set_name(std::string(name->text));
      saw_header = true;
    } else if (!saw_header) {
      return err(lineno, tok->column,
                 "'" + std::string(tok->text) + "' before 'cdfg <name>' header");
    } else if (tok->text == "node") {
      const auto name = lx.next();
      const auto op = lx.next();
      if (!name || !op) {
        return err(lineno, lx.column(), "node needs <name> <op> [dmin[:dmax]]");
      }
      const auto kind = op_from_name(op->text);
      if (!kind) {
        return err(lineno, op->column, "unknown op '" + std::string(op->text) + "'");
      }
      if (by_name.count(std::string(name->text)) != 0) {
        return err(lineno, name->column,
                   "duplicate node '" + std::string(name->text) + "'");
      }
      // Optional delay: either an exact value `d` or a bounded interval
      // `dmin:dmax` (the dynamically bounded delay model).
      int delay = -1;      // sentinel: add_node substitutes default_delay(kind)
      int delay_min = -1;  // sentinel: exact interval (delay_min == delay)
      int delay_col = op->column;
      if (const auto d = lx.next()) {
        const std::string_view text = d->text;
        delay_col = d->column;
        const std::size_t colon = text.find(':');
        if (colon == std::string_view::npos) {
          const auto v = io::to_int(text);
          if (!v || *v < 0) {
            return err(lineno, d->column,
                       "node delay must be a non-negative integer, got '" +
                           std::string(text) + "'");
          }
          delay = *v;
        } else {
          const auto lo = io::to_int(text.substr(0, colon));
          const auto hi = io::to_int(text.substr(colon + 1));
          if (!lo || !hi || *lo < 0) {
            return err(lineno, d->column,
                       "node delay bounds must be '<dmin>:<dmax>' with "
                       "non-negative integers, got '" +
                           std::string(text) + "'");
          }
          if (*hi < *lo) {
            return err(lineno, d->column,
                       "node delay bounds must satisfy dmin <= dmax, got '" +
                           std::string(text) + "'");
          }
          delay_min = *lo;
          delay = *hi;
        }
        if (!lx.at_end()) {
          return err(lineno, lx.column(), "trailing garbage after node delay");
        }
      }
      const NodeId id = g.add_node(*kind, std::string(name->text), delay);
      total_delay += g.node(id).delay;
      if (total_delay > std::numeric_limits<int>::max()) {
        return err(lineno, delay_col,
                   "total node delay exceeds " +
                       std::to_string(std::numeric_limits<int>::max()) +
                       ", so path lengths would overflow");
      }
      if (delay_min >= 0) {
        g.set_delay_bounds(id, delay_min, delay);
      }
      by_name.emplace(std::string(name->text), id);
    } else if (tok->text == "edge") {
      const auto src = lx.next();
      const auto dst = lx.next();
      if (!src || !dst) {
        return err(lineno, lx.column(), "edge needs <src> <dst> [kind] [tokens]");
      }
      const auto si = by_name.find(std::string(src->text));
      const auto di = by_name.find(std::string(dst->text));
      if (si == by_name.end()) {
        return err(lineno, src->column, "unknown node '" + std::string(src->text) + "'");
      }
      if (di == by_name.end()) {
        return err(lineno, dst->column, "unknown node '" + std::string(dst->text) + "'");
      }
      // Optional tail: [kind] [tokens].  A bare integer third field is a
      // token count on a data edge (no edge kind starts with a digit).
      EdgeKind kind = EdgeKind::kData;
      int tokens = 0;
      auto parse_tokens = [&](const io::Token& t)
          -> std::optional<io::Diagnostic> {
        const auto v = io::to_int(t.text);
        if (!v || *v <= 0) {
          return err(lineno, t.column,
                     "edge token count must be a positive integer, got '" +
                         std::string(t.text) + "'");
        }
        tokens = *v;
        return std::nullopt;
      };
      if (const auto third = lx.next()) {
        if (third->text == "data") {
          kind = EdgeKind::kData;
        } else if (third->text == "control") {
          kind = EdgeKind::kControl;
        } else if (third->text == "temporal") {
          kind = EdgeKind::kTemporal;
        } else if (!third->text.empty() &&
                   (std::isdigit(static_cast<unsigned char>(third->text[0])) != 0 ||
                    third->text[0] == '-' || third->text[0] == '+')) {
          if (auto d = parse_tokens(*third)) return std::move(*d);
        } else {
          return err(lineno, third->column,
                     "unknown edge kind '" + std::string(third->text) + "'");
        }
        if (tokens == 0) {
          if (const auto fourth = lx.next()) {
            if (auto d = parse_tokens(*fourth)) return std::move(*d);
          }
        }
        if (!lx.at_end()) {
          return err(lineno, lx.column(), "trailing garbage after edge tokens");
        }
      }
      try {
        g.add_edge(si->second, di->second, kind, tokens);
      } catch (const std::invalid_argument& e) {
        return err(lineno, tok->column, e.what());
      }
      edge_lines.push_back(lineno);
    } else {
      return err(lineno, tok->column,
                 "unknown directive '" + std::string(tok->text) + "'");
    }
  }
  if (const auto& e = lines.error()) return err(e->line, e->column, e->message);
  if (!saw_header) {
    return err(0, 0, "missing 'cdfg <name>' header");
  }
  // Reject unintended cycles at the trust boundary: every DAG analysis
  // downstream assumes the token-free precedence relation is acyclic,
  // and a hostile or truncated input must fail here with a located
  // diagnostic, not hang or throw deep inside a scheduler.  Cycles
  // through token-carrying back-edges are legal marked-graph structure
  // and pass (EdgeFilter::all() excludes them).
  const CycleInfo cycle = find_cycle(g, EdgeFilter::all());
  if (cycle.found()) {
    // Blame the cycle edge declared last in the file — the most recently
    // added constraint is the one that closed the cycle.
    int line = 0;
    for (EdgeId e : cycle.edges) {
      line = std::max(line, edge_lines[e.value]);
    }
    return err(line, 1,
               "edge closes a token-free cycle: " + cycle.describe(g) +
                   " (a loop-carried dependence needs an initial-token "
                   "count: 'edge <src> <dst> [kind] <tokens>')");
  }
  return g;
}

}  // namespace lwm::cdfg
