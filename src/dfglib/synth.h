// synth.h — parameterized synthetic CDFG generators.
//
// Two shapes cover everything the experiments need:
//
//   * make_dsp_design(): a filter-style graph with an exact critical
//     path and operation count — a serial multiply-accumulate spine of
//     the requested depth plus parallel tap/feeder operations.  Used to
//     reconstruct the Table II designs from their published critical-path
//     and variable-count columns.
//
//   * make_layered_dag(): a layered random DAG with a controllable
//     op-kind mix and parallelism profile — the stand-in for compiled
//     MediaBench basic-block traces (Table I).
//
// All generators are deterministic: the seed fully determines the graph.
#pragma once

#include <cstdint>
#include <string>

#include "cdfg/graph.h"

namespace lwm::dfglib {

/// Filter-style design with critical path exactly `critical_path` control
/// steps and exactly `operations` executable nodes.
/// Throws std::invalid_argument for infeasible combinations
/// (operations < 2, critical_path < operations' minimum spine, or a spine
/// longer than the op budget allows).
[[nodiscard]] cdfg::Graph make_dsp_design(const std::string& name,
                                          int critical_path, int operations,
                                          std::uint64_t seed);

/// Operation-kind mix for layered DAGs (weights, not probabilities).
struct OpMix {
  int alu = 60;
  int mul = 10;
  int mem = 20;
  int branch = 10;
};

/// Layered random DAG with ~`operations` executable nodes arranged in
/// layers of mean width `width`; each op draws 1–2 operands from the
/// previous few layers.
[[nodiscard]] cdfg::Graph make_layered_dag(const std::string& name,
                                           int operations, int width,
                                           const OpMix& mix, std::uint64_t seed);

/// Shape of a mega-design (the 100k–1M-node scale workloads).
enum class MegaShape {
  /// Deep layered random DAG — the direct scale-up of make_layered_dag.
  kLayeredDeep,
  /// Loop-unrolled MAC kernel: `width` parallel accumulator lanes, each a
  /// serial multiply-accumulate chain, joined by a final adder reduction —
  /// the maximally serial shape (critical path ~ operations / width).
  kUnrolledKernel,
  /// Stitched clones of a MediaBench-sized layered block: consecutive
  /// blocks share values through their boundary layers, modeling a large
  /// system assembled from many compiled kernels.
  kStitchedClones,
};

/// Parameters of one mega-design.  The seed fully determines the graph;
/// `operations` is hit exactly (executable nodes; inputs/outputs extra).
struct MegaConfig {
  std::string name = "mega";
  MegaShape shape = MegaShape::kLayeredDeep;
  int operations = 100'000;
  /// Mean layer width (kLayeredDeep), accumulator lane count
  /// (kUnrolledKernel), or block width (kStitchedClones, whose blocks
  /// hold 8 * width executable ops, a MediaBench-app-sized block).
  int width = 64;
  std::uint64_t seed = 1;
};

/// Builds a mega-design in O(V + E): no quadratic operand-pool rebuilds,
/// so 1M-node graphs construct in seconds.  Ops draw from the default
/// OpMix.  Throws std::invalid_argument on infeasible parameters
/// (operations < 1, width < 1).
/// The result passes cdfg::validate and has exactly `config.operations`
/// executable nodes.
[[nodiscard]] cdfg::Graph make_mega_design(const MegaConfig& config);

}  // namespace lwm::dfglib
