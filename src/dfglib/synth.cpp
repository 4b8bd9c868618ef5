#include "dfglib/synth.h"

#include <random>
#include <stdexcept>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/validate.h"

namespace lwm::dfglib {

using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

Graph make_dsp_design(const std::string& name, int critical_path,
                      int operations, std::uint64_t seed) {
  // Guard the spine math below: spine_len = min(operations, critical_path)
  // is the divisor of `critical_path / spine_len`, so either parameter at
  // zero (or below) would be a division by zero, not just a bad design.
  if (critical_path < 1 || operations < 1) {
    throw std::invalid_argument(
        "make_dsp_design('" + name + "'): need critical_path >= 1 and "
        "operations >= 1, got critical_path=" + std::to_string(critical_path) +
        ", operations=" + std::to_string(operations));
  }
  std::mt19937_64 rng(seed);
  Graph g(name);

  // A small pool of primary inputs shared by the whole design.
  std::vector<NodeId> inputs;
  const int n_inputs = 4;
  for (int i = 0; i < n_inputs; ++i) {
    inputs.push_back(g.add_node(OpKind::kInput, "x" + std::to_string(i)));
  }
  auto any_input = [&] { return inputs[rng() % inputs.size()]; };

  // Spine: serial accumulation chain carrying the critical path.
  const int spine_len = std::min(operations, critical_path);
  const int base_delay = critical_path / spine_len;
  int remainder = critical_path % spine_len;  // spread +1 over `remainder` ops

  std::vector<NodeId> spine;
  std::vector<int> spine_start;  // start step of each spine op
  int t = 0;
  for (int i = 0; i < spine_len; ++i) {
    int delay = base_delay;
    if (remainder > 0) {
      ++delay;
      --remainder;
    }
    const OpKind kind = (i % 4 == 3) ? OpKind::kSub : OpKind::kAdd;
    const NodeId n = g.add_node(kind, "spine" + std::to_string(i), delay);
    if (i == 0) {
      g.add_edge(any_input(), n);
      g.add_edge(any_input(), n);
    } else {
      g.add_edge(spine[static_cast<std::size_t>(i - 1)], n);
      g.add_edge(any_input(), n);
    }
    spine.push_back(n);
    spine_start.push_back(t);
    t += delay;
  }
  g.add_edge(spine.back(),
             g.add_node(OpKind::kOutput, "y"));

  // Feeders: parallel taps that raise the op count without stretching the
  // critical path.  Where the spine is deep enough, taps come as
  // multiply-accumulate pairs (mul feeding add feeding the spine) — the
  // off-critical composite structure template matching feeds on; the
  // rest are single ops.
  std::vector<std::size_t> depth1;  // spine positions accepting 1-deep taps
  std::vector<std::size_t> depth2;  // ... 2-deep tap chains
  for (std::size_t i = 0; i < spine.size(); ++i) {
    if (spine_start[i] >= 1) depth1.push_back(i);
    if (spine_start[i] >= 2) depth2.push_back(i);
  }
  // Deepest tap chain each spine position can absorb without stretching
  // the critical path.
  auto positions_with_depth = [&](int depth) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < spine.size(); ++i) {
      if (spine_start[i] >= depth) out.push_back(i);
    }
    return out;
  };
  int remaining = operations - spine_len;
  int f = 0;
  while (remaining > 0) {
    const int want = 2 + static_cast<int>(rng() % 5);  // chain length 2..6
    const int len = std::min(want, remaining);
    const std::vector<std::size_t> legal =
        len >= 2 ? positions_with_depth(len) : std::vector<std::size_t>{};
    if (len >= 3 && !legal.empty() && rng() % 3 != 0) {
      // Tap chain: mul -> add -> ... -> add -> spine.  Chains of adds
      // admit *overlapping* composite coverings (mac vs add2 at every
      // joint), so enforcing one matching mid-chain shifts the pairing
      // parity of the rest — the covering-disruption effect template-
      // matching watermarks rely on.
      const NodeId m = g.add_node(OpKind::kMul, "tch" + std::to_string(f) + "m", 1);
      g.add_edge(any_input(), m);
      g.add_edge(any_input(), m);
      NodeId prev = m;
      for (int j = 1; j < len; ++j) {
        const NodeId a = g.add_node(
            OpKind::kAdd, "tch" + std::to_string(f) + "a" + std::to_string(j), 1);
        g.add_edge(prev, a);
        g.add_edge(any_input(), a);
        prev = a;
      }
      g.add_edge(prev, spine[legal[rng() % legal.size()]]);
      remaining -= len;
    } else if (remaining >= 2 && !depth2.empty() && rng() % 2 == 0) {
      // MAC pair: tapM -> tapA -> spine.
      const NodeId m = g.add_node(OpKind::kMul, "tapm" + std::to_string(f), 1);
      g.add_edge(any_input(), m);
      g.add_edge(any_input(), m);
      const NodeId a = g.add_node(OpKind::kAdd, "tapa" + std::to_string(f), 1);
      g.add_edge(m, a);
      g.add_edge(any_input(), a);
      g.add_edge(a, spine[depth2[rng() % depth2.size()]]);
      remaining -= 2;
    } else {
      const OpKind kind = (f % 3 == 0)   ? OpKind::kMul
                          : (f % 3 == 1) ? OpKind::kShift
                                         : OpKind::kAdd;
      const NodeId n = g.add_node(kind, "tap" + std::to_string(f), 1);
      g.add_edge(any_input(), n);
      if (kind != OpKind::kShift) g.add_edge(any_input(), n);
      if (depth1.empty()) {
        g.add_edge(n, g.add_node(OpKind::kOutput, "tap_out" + std::to_string(f)));
      } else {
        g.add_edge(n, spine[depth1[rng() % depth1.size()]]);
      }
      remaining -= 1;
    }
    ++f;
  }

  cdfg::validate_or_throw(g);
  const int cp = cdfg::critical_path_length(g);
  if (cp != critical_path ||
      g.operation_count() != static_cast<std::size_t>(operations)) {
    throw std::logic_error("make_dsp_design: generator missed targets for '" +
                           name + "' (cp=" + std::to_string(cp) + ", ops=" +
                           std::to_string(g.operation_count()) + ")");
  }
  return g;
}

namespace {

OpKind draw_mix_kind(std::mt19937_64& rng, const OpMix& mix) {
  const int total_weight = mix.alu + mix.mul + mix.mem + mix.branch;
  int r = static_cast<int>(rng() % static_cast<unsigned>(total_weight));
  if ((r -= mix.alu) < 0) {
    constexpr OpKind kAluKinds[] = {OpKind::kAdd, OpKind::kSub, OpKind::kAnd,
                                    OpKind::kOr,  OpKind::kXor, OpKind::kCmp,
                                    OpKind::kShift};
    return kAluKinds[rng() % std::size(kAluKinds)];
  }
  if ((r -= mix.mul) < 0) return OpKind::kMul;
  if ((r -= mix.mem) < 0) return (rng() % 4 == 0) ? OpKind::kStore : OpKind::kLoad;
  return OpKind::kBranch;
}

int operand_count(OpKind kind) {
  return (kind == OpKind::kNot || kind == OpKind::kShift ||
          kind == OpKind::kLoad || kind == OpKind::kBranch)
             ? 1
             : 2;
}

/// Appends exactly `ops` executable nodes in random-width layers.  Operand
/// candidates are the flat `recent` pool — the last up-to-3 layers,
/// rebuilt once per layer, so the whole pass is O(V + E) instead of
/// make_layered_dag's O(V * width) pool concatenation per node.  Nodes
/// with no in-DAG candidate (and a 1-in-5 refresh draw) read from
/// `fallback` (primary inputs, or the previous block's tail when
/// stitching).  Returns the final pool for the caller to stitch on.
std::vector<NodeId> append_layers(Graph& g, std::mt19937_64& rng, int ops,
                                  int width, const OpMix& mix,
                                  const std::vector<NodeId>& fallback) {
  std::vector<std::vector<NodeId>> last3;
  std::vector<NodeId> recent;
  int placed = 0;
  while (placed < ops) {
    const int w = std::min<int>(
        ops - placed,
        1 + static_cast<int>(rng() % static_cast<unsigned>(2 * width)));
    std::vector<NodeId> layer;
    layer.reserve(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      const OpKind kind = draw_mix_kind(rng, mix);
      const NodeId n = g.add_node(kind);
      const int operands = operand_count(kind);
      for (int o = 0; o < operands; ++o) {
        const NodeId src = recent.empty() || (rng() % 5 == 0)
                               ? fallback[rng() % fallback.size()]
                               : recent[rng() % recent.size()];
        g.add_edge(src, n);
      }
      layer.push_back(n);
      ++placed;
    }
    last3.push_back(std::move(layer));
    if (last3.size() > 3) last3.erase(last3.begin());
    recent.clear();
    for (const std::vector<NodeId>& l : last3) {
      recent.insert(recent.end(), l.begin(), l.end());
    }
  }
  return recent;
}

/// Adds a kOutput consumer for every dangling executable value
/// (validator: stores and branches may dangle, values may not).
void terminate_dangling(Graph& g) {
  int outs = 0;
  std::vector<NodeId> dangling;
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    if (node.kind == OpKind::kStore || node.kind == OpKind::kBranch) continue;
    if (g.fanout(n).empty()) dangling.push_back(n);
  }
  for (NodeId n : dangling) {
    g.add_edge(n, g.add_node(OpKind::kOutput, "out" + std::to_string(outs++)));
  }
}

}  // namespace

Graph make_layered_dag(const std::string& name, int operations, int width,
                       const OpMix& mix, std::uint64_t seed) {
  if (operations < 1 || width < 1) {
    throw std::invalid_argument("make_layered_dag: need ops >= 1, width >= 1");
  }
  std::mt19937_64 rng(seed);
  Graph g(name);

  std::vector<NodeId> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(g.add_node(OpKind::kInput, "in" + std::to_string(i)));
  }

  const int total_weight = mix.alu + mix.mul + mix.mem + mix.branch;
  if (total_weight <= 0) {
    throw std::invalid_argument("make_layered_dag: empty op mix");
  }
  auto draw_kind = [&]() -> OpKind {
    int r = static_cast<int>(rng() % static_cast<unsigned>(total_weight));
    if ((r -= mix.alu) < 0) {
      constexpr OpKind kAluKinds[] = {OpKind::kAdd, OpKind::kSub, OpKind::kAnd,
                                      OpKind::kOr,  OpKind::kXor, OpKind::kCmp,
                                      OpKind::kShift};
      return kAluKinds[rng() % std::size(kAluKinds)];
    }
    if ((r -= mix.mul) < 0) return OpKind::kMul;
    if ((r -= mix.mem) < 0) return (rng() % 4 == 0) ? OpKind::kStore : OpKind::kLoad;
    return OpKind::kBranch;
  };

  std::vector<std::vector<NodeId>> layers;
  int placed = 0;
  while (placed < operations) {
    const int w = std::min<int>(
        operations - placed,
        1 + static_cast<int>(rng() % static_cast<unsigned>(2 * width)));
    std::vector<NodeId> layer;
    for (int i = 0; i < w; ++i) {
      const OpKind kind = draw_kind();
      const NodeId n = g.add_node(kind);
      // 1-2 operands from the previous (up to) 3 layers, else inputs.
      std::vector<NodeId> pool;
      const std::size_t from =
          layers.size() > 3 ? layers.size() - 3 : static_cast<std::size_t>(0);
      for (std::size_t l = from; l < layers.size(); ++l) {
        pool.insert(pool.end(), layers[l].begin(), layers[l].end());
      }
      const int operands = (kind == OpKind::kNot || kind == OpKind::kShift ||
                            kind == OpKind::kLoad || kind == OpKind::kBranch)
                               ? 1
                               : 2;
      for (int o = 0; o < operands; ++o) {
        const NodeId src = pool.empty() || (rng() % 5 == 0)
                               ? inputs[rng() % inputs.size()]
                               : pool[rng() % pool.size()];
        g.add_edge(src, n);
      }
      layer.push_back(n);
      ++placed;
    }
    layers.push_back(std::move(layer));
  }

  // Terminate dangling values (validator: every value needs a consumer,
  // except stores and branches).
  int outs = 0;
  for (NodeId n : g.nodes()) {
    const cdfg::Node& node = g.node(n);
    if (!cdfg::is_executable(node.kind)) continue;
    if (node.kind == OpKind::kStore || node.kind == OpKind::kBranch) continue;
    if (g.fanout(n).empty()) {
      const NodeId out = g.add_node(OpKind::kOutput, "out" + std::to_string(outs++));
      g.add_edge(n, out);
    }
  }

  cdfg::validate_or_throw(g);
  return g;
}

Graph make_mega_design(const MegaConfig& config) {
  if (config.operations < 1 || config.width < 1) {
    throw std::invalid_argument(
        "make_mega_design('" + config.name + "'): need operations >= 1 and "
        "width >= 1, got operations=" + std::to_string(config.operations) +
        ", width=" + std::to_string(config.width));
  }
  const OpMix mix{};  // every shape draws the default op mix

  std::mt19937_64 rng(config.seed);
  Graph g(config.name);

  std::vector<NodeId> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(g.add_node(OpKind::kInput, "in" + std::to_string(i)));
  }
  auto any_input = [&] { return inputs[rng() % inputs.size()]; };

  switch (config.shape) {
    case MegaShape::kLayeredDeep: {
      append_layers(g, rng, config.operations, config.width, mix, inputs);
      terminate_dangling(g);
      break;
    }
    case MegaShape::kUnrolledKernel: {
      // `lanes` parallel MAC chains + a (lanes-1)-add reduction tree must
      // fit the exact op budget: lanes lane-seeds + lanes-1 reduction adds
      // <= operations  =>  lanes <= (operations + 1) / 2.
      const int lanes = std::min(config.width, (config.operations + 1) / 2);
      int remaining = config.operations - (lanes - 1);  // ops left for lanes
      std::vector<NodeId> lane_out;
      lane_out.reserve(static_cast<std::size_t>(lanes));
      for (int lane = 0; lane < lanes; ++lane) {
        // Near-even split of the remaining budget over the remaining lanes.
        int budget = remaining / (lanes - lane);
        remaining -= budget;
        NodeId acc = g.add_node(OpKind::kAdd);
        g.add_edge(any_input(), acc);
        g.add_edge(any_input(), acc);
        --budget;
        while (budget >= 2) {
          const NodeId m = g.add_node(OpKind::kMul);
          g.add_edge(any_input(), m);
          g.add_edge(any_input(), m);
          const NodeId a = g.add_node(OpKind::kAdd);
          g.add_edge(acc, a);
          g.add_edge(m, a);
          acc = a;
          budget -= 2;
        }
        if (budget == 1) {
          const NodeId a = g.add_node(OpKind::kAdd);
          g.add_edge(acc, a);
          g.add_edge(any_input(), a);
          acc = a;
        }
        lane_out.push_back(acc);
      }
      NodeId sum = lane_out[0];
      for (int lane = 1; lane < lanes; ++lane) {
        const NodeId a = g.add_node(OpKind::kAdd);
        g.add_edge(sum, a);
        g.add_edge(lane_out[static_cast<std::size_t>(lane)], a);
        sum = a;
      }
      g.add_edge(sum, g.add_node(OpKind::kOutput, "y"));
      break;
    }
    case MegaShape::kStitchedClones: {
      const int block_ops = 8 * config.width;
      std::vector<NodeId> boundary = inputs;
      int remaining = config.operations;
      while (remaining > 0) {
        const int b = std::min(block_ops, remaining);
        std::vector<NodeId> tail =
            append_layers(g, rng, b, config.width, mix, boundary);
        if (!tail.empty()) boundary = std::move(tail);
        remaining -= b;
      }
      terminate_dangling(g);
      break;
    }
  }

  cdfg::validate_or_throw(g);
  if (g.operation_count() != static_cast<std::size_t>(config.operations)) {
    throw std::logic_error(
        "make_mega_design: generator missed op target for '" + config.name +
        "' (ops=" + std::to_string(g.operation_count()) + ", want " +
        std::to_string(config.operations) + ")");
  }
  return g;
}

}  // namespace lwm::dfglib
