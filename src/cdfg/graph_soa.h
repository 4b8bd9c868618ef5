// graph_soa.h — structure-of-arrays snapshot of a CDFG for hot loops.
//
// cdfg::Graph stores adjacency as std::vector<std::vector<EdgeId>> and
// per-node payloads behind NodeId handles — the right shape for
// mutation, but a pointer chase per edge on the traversal-heavy paths
// (timing-window propagation, force-directed refill fan-out).  GraphSoA
// freezes a filtered view of a graph into flat, cache-dense arrays:
//
//   * live nodes renumbered to dense 32-bit indices [0, size()) in
//     ascending NodeId order;
//   * CSR fan-in / fan-out: one offsets array plus one arena of dense
//     neighbor indices per direction, with each node's edge insertion
//     order preserved (the deterministic-ordering contract the
//     watermark domain-identification step relies on) and edges not
//     accepted by the filter dropped at build time;
//   * contiguous per-node attribute arrays: delay (the d_max
//     scheduling delay), unit class, executability.
//
// Parallel edges contribute one CSR entry each, exactly like the
// EdgeId-based adjacency they mirror.  The view is a snapshot: graph
// mutations after construction are not reflected.  The round trip
// against the source graph is property-checked by
// tests/cdfg/graph_soa_test.cpp on every dfglib kernel and the fuzz
// corpus CDFGs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"

namespace lwm::cdfg {

class GraphSoA {
 public:
  /// Sentinel dense index for dead / out-of-range NodeIds.
  static constexpr std::uint32_t kInvalid = 0xFFFF'FFFFu;

  explicit GraphSoA(const Graph& g, EdgeFilter filter = EdgeFilter::all());

  /// The 32-bit CSR layout caps what one snapshot can hold: fewer than
  /// kInvalid nodes (the sentinel must stay unused) and at most
  /// 0xFFFFFFFF accepted edge entries per direction (the offsets array
  /// is uint32).  Throws std::length_error naming the exceeded limit —
  /// a mega-design past these bounds must fail loudly, never truncate
  /// indices.  Exposed for direct unit testing; graphs at the limit are
  /// too large to construct in a test.
  static void check_csr_limits(std::size_t nodes, std::uint64_t edge_entries);

  [[nodiscard]] const EdgeFilter& filter() const noexcept { return filter_; }

  /// Number of live nodes frozen into the view.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(node_of_.size());
  }

  /// Dense index -> source-graph NodeId (ascending in dense order).
  [[nodiscard]] NodeId node_of(std::uint32_t dense) const noexcept {
    return node_of_[dense];
  }

  /// Source-graph NodeId -> dense index; kInvalid if the node was dead
  /// (or out of range) at snapshot time.
  [[nodiscard]] std::uint32_t dense_of(NodeId n) const noexcept {
    return n.value < dense_of_.size() ? dense_of_[n.value] : kInvalid;
  }

  /// Accepted fan-in / fan-out of `dense`, as dense indices, in the
  /// source node's edge insertion order.
  [[nodiscard]] std::span<const std::uint32_t> fanin(std::uint32_t dense) const noexcept {
    return {fanin_.data() + fanin_off_[dense],
            fanin_off_[dense + 1] - fanin_off_[dense]};
  }
  [[nodiscard]] std::span<const std::uint32_t> fanout(std::uint32_t dense) const noexcept {
    return {fanout_.data() + fanout_off_[dense],
            fanout_off_[dense + 1] - fanout_off_[dense]};
  }

  [[nodiscard]] int delay(std::uint32_t dense) const noexcept {
    return delay_[dense];
  }
  [[nodiscard]] UnitClass unit_class(std::uint32_t dense) const noexcept {
    return static_cast<UnitClass>(cls_[dense]);
  }
  [[nodiscard]] bool executable(std::uint32_t dense) const noexcept {
    return exec_[dense] != 0;
  }

  /// Raw attribute streams (indexed by dense id) for kernel code.
  [[nodiscard]] std::span<const std::int32_t> delays() const noexcept {
    return delay_;
  }
  [[nodiscard]] std::span<const std::uint8_t> classes() const noexcept {
    return cls_;
  }
  [[nodiscard]] std::span<const std::uint8_t> executables() const noexcept {
    return exec_;
  }

  /// Total accepted edge entries in the fan-in arena (== fan-out arena).
  [[nodiscard]] std::size_t edge_entries() const noexcept {
    return fanin_.size();
  }

 private:
  EdgeFilter filter_;
  std::vector<NodeId> node_of_;          ///< dense -> NodeId
  std::vector<std::uint32_t> dense_of_;  ///< NodeId::value -> dense
  std::vector<std::uint32_t> fanin_off_, fanout_off_;  ///< size() + 1 each
  std::vector<std::uint32_t> fanin_, fanout_;          ///< CSR arenas
  std::vector<std::int32_t> delay_;
  std::vector<std::uint8_t> cls_;
  std::vector<std::uint8_t> exec_;
};

}  // namespace lwm::cdfg
