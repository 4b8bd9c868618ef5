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
  /// T_o, sorted by unique identifier (identifier == index).
  std::vector<cdfg::NodeId> ordered;
  /// T ⊆ T_o carved by the signature, sorted by unique identifier.
  std::vector<cdfg::NodeId> selected;
};

/// Working memory of the flat carve kernel: dense NodeId marks reset by an
/// epoch bump, and arrays over cone-local indices 0..c-1 (discovery order)
/// that only grow.  A batch caller (detector chunk, embed wave chunk) owns
/// one, so it lives no longer than the batch; one-off carves reuse a
/// per-thread instance.
struct CarveScratch {
  cdfg::NodeMarks marks;  ///< cone membership; value = local index
  std::vector<cdfg::ConeNode> cone;
  /// Local CSR: deduplicated in-cone inputs, first-occurrence order.
  std::vector<std::uint32_t> in_begin, in;
  std::vector<int> level, pending, fid;
  /// C2 K(x) and C3 phi(x) keys, row-major c x tau.
  std::vector<int> cone_size;
  std::vector<long long> cone_phi;
  std::vector<std::uint32_t> seen, dist, queue;
  std::vector<std::uint32_t> order, rank, inputs;  ///< order: by identifier
  std::vector<char> selected;

  [[nodiscard]] std::span<const std::uint32_t> inputs_of(std::uint32_t i) const {
    return {in.data() + in_begin[i], in.data() + in_begin[i + 1]};
  }
};

/// Orders the fan-in cone of `root` (max-distance `tau`) by criteria
/// C1 → C2 → C3 → discovery position.  Deterministic, signature-free.
[[nodiscard]] std::vector<cdfg::NodeId> order_locality(const cdfg::Graph& g,
                                                       cdfg::NodeId root, int tau);

/// Step one of domain selection: gathers the fan-in cone T_o of `root`
/// (max-distance `tau`, root first) into `s.cone`.
void gather_cone(const cdfg::Graph& g, cdfg::NodeId root, int tau,
                 CarveScratch& s);

/// Step two: orders the cone last gathered into `s` (at `key.tau`) and
/// carves T out of it with a copy of `carve`.
[[nodiscard]] Domain carve_cone(const cdfg::Graph& g,
                                const crypto::Bitstream& carve,
                                const DomainKey& key, CarveScratch& s);

/// Full domain selection: ordering plus signature-keyed carving of T,
/// i.e. gather_cone then carve_cone.
/// A pure function of (graph structure reachable from root, key, sig) —
/// embedding and detection call this identically.  `carve` is the
/// signature's fresh `DomainKey::kCarveTag` stream; the carve draws from
/// a copy, so a caller carving many roots keys RC4 once.  A null
/// `scratch` uses the calling thread's.
[[nodiscard]] Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                                   const crypto::Bitstream& carve,
                                   const DomainKey& key,
                                   CarveScratch* scratch = nullptr);

/// Op-multiset fingerprint of a node multiset: its size and the count of
/// every op kind in it (indexed by functional_id - 1), each saturating.
/// A carve selects a subset of its cone, so a memorized subtree that is
/// larger than the cone, or holds more of some op, cannot pass the
/// structural gate there.  A saturated field of the cone never rejects,
/// and a saturated field of the subtree undercounts, so the test is exact:
/// it never refuses a subtree the cone can hold.
struct ConeFingerprint {
  static constexpr std::uint16_t kMaxSize = 0xFFFF;
  static constexpr std::uint8_t kMaxCount = 0xFF;

  std::uint16_t size = 0;
  std::array<std::uint8_t, cdfg::kNumOpKinds> count{};

  /// The fingerprint of a gathered cone (`CarveScratch::cone`).
  [[nodiscard]] static ConeFingerprint of_cone(
      const cdfg::Graph& g, std::span<const cdfg::ConeNode> cone);
  /// The fingerprint of a memorized subtree; every id must lie in
  /// [1, cdfg::kNumOpKinds].
  [[nodiscard]] static ConeFingerprint of_ops(std::span<const int> subtree_ops);

  /// False when a subtree fingerprinted `sub` cannot be carved from this
  /// cone.
  [[nodiscard]] bool may_hold(const ConeFingerprint& sub) const;
};

[[nodiscard]] inline Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                                          const crypto::Signature& sig,
                                          const DomainKey& key) {
  return select_domain(g, root, sig.stream(DomainKey::kCarveTag), key);
}

/// Publishes a batch of carves (a detector chunk, an embed wave, one plan)
/// as one `wm/domains_carved` add and one `wm/domain_size` merge.
void record_carves(std::span<const std::size_t> selected_sizes);

/// The structural gate of detection (paper §IV-A): true when the carved
/// subtree `d.selected` is the memorized subtree — same size, and the
/// functional id at every unique identifier equals `subtree_ops`.
[[nodiscard]] bool subtree_matches(const cdfg::Graph& g, const Domain& d,
                                   std::span<const int> subtree_ops);

/// Picks a pseudo-random executable root from `stream` (used when
/// embedding; detection scans all candidate roots instead).
[[nodiscard]] cdfg::NodeId pick_root(const cdfg::Graph& g,
                                     crypto::Bitstream& stream);

}  // namespace lwm::wm
