// domain.h — domain selection and identification for local watermarks.
//
// Step one of both protocols (paper §IV-A): pick a root n_o, take its
// fan-in tree T_o of max-distance tau, give every node of T_o a *unique
// identifier* via the ordering criteria
//   C1  level L_i — longest path from n_o to n_i inside the locality;
//   C2  K_i(x)    — fan-in cone cardinality at growing distances x;
//   C3  phi(n_i,x) — functionality-weighted cone sums at growing x;
// then carve the watermark subtree T out of T_o with the author-keyed
// bitstream (top-down breadth-first; at each node at least one input is
// kept and every other input is kept with a fixed probability).
//
// Reproduction note: we evaluate C1–C3 on the subgraph *induced by T_o*
// rather than on the whole CDFG.  The paper computes them globally; the
// induced-subgraph variant makes the identifiers a pure function of the
// locality, which is what lets detection succeed after the core is cut
// out of, or embedded into, another design — the property §I motivates.
// Nodes still tied after C1–C3 at every distance have isomorphic
// in-cone environments; they are finally ordered by their breadth-first
// discovery position, which is reproducible because fan-in lists preserve
// insertion order through serialization, extraction, and embedding.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "crypto/signature.h"

namespace lwm::wm {

/// Parameters shared by embedding and detection — both sides must agree
/// on these (they are part of the watermark key, alongside the signature).
struct DomainKey {
  int tau = 8;  ///< fan-in max-distance of the locality T_o
  /// Probability (keep_num / keep_den) that a non-mandatory input is kept
  /// while carving T ("the exclusion of inputs can be done with a given
  /// probability").
  std::uint32_t keep_num = 1;
  std::uint32_t keep_den = 2;
  /// Purpose tag for the carving bitstream.
  static constexpr const char* kCarveTag = "lwm/carve";

  friend bool operator==(const DomainKey&, const DomainKey&) = default;
};

/// A selected and uniquely identified locality.
struct Domain {
  cdfg::NodeId root;
  /// T ⊆ T_o carved by the signature, sorted by unique identifier.
  std::vector<cdfg::NodeId> selected;
};

/// The specification fan-in of one graph as flat arrays, the only graph
/// state a carve reads: each node's specification-edge sources (temporal
/// and token edges dropped, so a marked graph carves like its acyclic
/// skeleton and earlier marks stay detectable), deduplicated in
/// first-occurrence fan-in order, and each node's functional id.  Built
/// in O(V + E); about 5 bytes per node and 4 per specification edge.
/// It stays valid for any graph with the same live nodes, NodeIds and
/// specification edges — a copy carrying temporal edges included.
struct FaninView {
  std::vector<std::uint32_t> begin;  ///< row offsets, node_capacity + 1
  std::vector<std::uint32_t> src;    ///< source NodeId values, row by row
  std::vector<std::uint8_t> fid;     ///< functional id; 0 for a dead id

  [[nodiscard]] static FaninView build(const cdfg::Graph& g);

  [[nodiscard]] std::size_t node_capacity() const { return fid.size(); }
  [[nodiscard]] bool is_live(cdfg::NodeId n) const {
    return n.value < fid.size() && fid[n.value] != 0;
  }
  [[nodiscard]] std::span<const std::uint32_t> inputs_of(cdfg::NodeId n) const {
    return {src.data() + begin[n.value], src.data() + begin[n.value + 1]};
  }
};

/// Working memory of the flat carve kernel: dense NodeId marks reset by an
/// epoch bump, the gathered cone, and arrays over cone-local indices
/// 0..c-1 (discovery order); every array only grows.  A batch caller
/// (detector chunk, embed wave chunk) owns one, so it lives no longer
/// than the batch; one-off carves reuse a per-thread instance.
struct CarveScratch {
  cdfg::NodeMarks marks;  ///< cone membership; value = local index
  std::vector<cdfg::ConeNode> cone;  ///< T_o, (distance, NodeId) order
  /// Local CSR: deduplicated in-cone inputs, first-occurrence order.
  std::vector<std::uint32_t> in_begin, in;
  std::vector<int> level, pending, fid;
  /// C2 K(x) and C3 phi(x) keys, row-major c x tau; a row is computed on
  /// the first comparison that reads it (`row_ready`).
  std::size_t tau = 0;
  std::vector<int> cone_size;
  std::vector<long long> cone_phi;
  std::vector<char> row_ready;
  std::vector<std::uint32_t> seen, dist, queue;
  std::vector<std::uint32_t> picked, inputs;  ///< picked: T, carve order
  std::vector<char> selected;
  /// Not yet published by record_carves: C2/C3 rows computed, and
  /// carves cut short by their bound.
  std::size_t key_rows = 0;
  std::size_t carves_cut = 0;

  [[nodiscard]] std::span<const std::uint32_t> inputs_of(std::uint32_t i) const {
    return {in.data() + in_begin[i], in.data() + in_begin[i + 1]};
  }
};

/// Op-multiset fingerprint of a node multiset: its size and the count of
/// every op kind in it (indexed by functional_id - 1), each saturating.
/// A carve selects a subset of its cone, so a memorized subtree that is
/// larger than the cone, or holds more of some op, cannot pass the
/// structural gate there.  A saturated field of the cone never rejects,
/// and a saturated field of the subtree undercounts, so the test is exact:
/// it never refuses a subtree the cone can hold.  Equal multisets give
/// equal fingerprints, so a carve whose fingerprint differs from a
/// subtree's cannot be that subtree either.
struct ConeFingerprint {
  static constexpr std::uint16_t kMaxSize = 0xFFFF;
  static constexpr std::uint8_t kMaxCount = 0xFF;

  std::uint16_t size = 0;
  std::array<std::uint8_t, cdfg::kNumOpKinds> count{};

  /// The fingerprint of a cone gathered from `view` (`CarveScratch::cone`).
  [[nodiscard]] static ConeFingerprint of_cone(
      const FaninView& view, std::span<const cdfg::ConeNode> cone);
  /// The fingerprint of a memorized subtree; every id must lie in
  /// [1, cdfg::kNumOpKinds].
  [[nodiscard]] static ConeFingerprint of_ops(std::span<const int> subtree_ops);

  /// False when a subtree fingerprinted `sub` cannot be carved from this
  /// cone.
  [[nodiscard]] bool may_hold(const ConeFingerprint& sub) const;
  friend bool operator==(const ConeFingerprint&, const ConeFingerprint&) = default;
};

/// Orders the fan-in cone of `root` (max-distance `tau`) by criteria
/// C1 → C2 → C3 → discovery position.  Deterministic, signature-free.
/// Builds `g`'s FaninView for the one root.
[[nodiscard]] std::vector<cdfg::NodeId> order_locality(const cdfg::Graph& g,
                                                       cdfg::NodeId root, int tau);

/// Step one of domain selection: gathers the fan-in cone T_o of `root`
/// (max-distance `tau`, (distance, NodeId) order, root first) into
/// `s.cone`.
void gather_cone(const FaninView& view, cdfg::NodeId root, int tau,
                 CarveScratch& s);

/// Step two: carves T out of the cone last gathered into `s` (at
/// `key.tau`) with a copy of `carve`, leaving T in `s.picked`, carve
/// order.  Returns T's fingerprint, for a test before step three.
///
/// With a `bound`, the carve stops as soon as T's size or one of its op
/// counts exceeds the bound's (a saturated bound field never cuts), adds
/// one to `s.carves_cut` and returns nullopt: T only grows, so no
/// multiset within the bound can then equal T's.
[[nodiscard]] std::optional<ConeFingerprint> carve_cone(
    const FaninView& view, const crypto::Bitstream& carve,
    const DomainKey& key, CarveScratch& s,
    const ConeFingerprint* bound = nullptr);

/// Step three: T, last carved into `s`, sorted by unique identifier.
[[nodiscard]] Domain order_carve(CarveScratch& s);

/// Full domain selection: gather_cone, carve_cone, then order_carve.
/// A pure function of (graph structure reachable from root, key, sig) —
/// embedding and detection call this identically.  `carve` is the
/// signature's fresh `DomainKey::kCarveTag` stream; the carve draws from
/// a copy, so a caller carving many roots keys RC4 once.  A null
/// `scratch` uses the calling thread's.
[[nodiscard]] Domain select_domain(const FaninView& view, cdfg::NodeId root,
                                   const crypto::Bitstream& carve,
                                   const DomainKey& key,
                                   CarveScratch* scratch = nullptr);

/// One-root selection on a graph: builds `g`'s FaninView for the call.
/// A caller carving many roots builds the view once and passes it.
[[nodiscard]] Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                                   const crypto::Bitstream& carve,
                                   const DomainKey& key);

[[nodiscard]] inline Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                                          const crypto::Signature& sig,
                                          const DomainKey& key) {
  return select_domain(g, root, sig.stream(DomainKey::kCarveTag), key);
}

/// Publishes a batch of carves (a detector chunk, an embed wave chunk, one
/// plan): `selected_sizes` holds the T size of every completed carve,
/// and `scratch` (null: the thread's) the batch's key rows and cut
/// carves.  One add each to `wm/domains_carved` (every carve started,
/// completed or cut), `wm/carves_cut` and `wm/carve_key_rows`, and one
/// `wm/domain_size` merge of the completed carves.
void record_carves(std::span<const std::size_t> selected_sizes,
                   CarveScratch* scratch = nullptr);

/// The structural gate of detection (paper §IV-A): true when the carved
/// subtree `d.selected` is the memorized subtree — same size, and the
/// functional id at every unique identifier equals `subtree_ops`.
[[nodiscard]] bool subtree_matches(const cdfg::Graph& g, const Domain& d,
                                   std::span<const int> subtree_ops);

}  // namespace lwm::wm
