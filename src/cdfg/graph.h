// graph.h — the control/data-flow graph (CDFG) at the heart of the library.
//
// Syntax follows the paper's CDFG format: a flow graph with nodes, data
// edges, and control edges; semantics are homogeneous SDF.  In addition to
// data and control edges the graph supports *temporal* edges — the extra
// precedence constraints ("standard nomenclature for behavioral
// descriptions, e.g. HYPER") that the watermarking protocol augments and
// later strips from the specification.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/op.h"

namespace lwm::cdfg {

/// Strongly typed node handle.  Indexes are stable for the lifetime of the
/// graph (removal uses tombstones, never reindexing), so NodeIds may be
/// stored across mutations.
struct NodeId {
  std::uint32_t value = std::numeric_limits<std::uint32_t>::max();

  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value != std::numeric_limits<std::uint32_t>::max();
  }
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

/// Strongly typed edge handle; same stability guarantees as NodeId.
struct EdgeId {
  std::uint32_t value = std::numeric_limits<std::uint32_t>::max();

  constexpr EdgeId() = default;
  constexpr explicit EdgeId(std::uint32_t v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value != std::numeric_limits<std::uint32_t>::max();
  }
  friend constexpr auto operator<=>(EdgeId, EdgeId) = default;
};

/// Edge flavor.  All three impose precedence on a legal schedule; they
/// differ in provenance: data edges carry values, control edges sequence
/// operations for control-flow reasons, temporal edges exist only to
/// encode watermark constraints (and are stripped after synthesis).
enum class EdgeKind : std::uint8_t { kData, kControl, kTemporal };

std::string_view edge_kind_name(EdgeKind k) noexcept;

/// A CDFG operation node.
///
/// Delays are *dynamically bounded* (the source paper's model): an
/// operation completes somewhere in [delay_min, delay] control steps,
/// where the realization depends on data/operating conditions the
/// scheduler cannot observe.  `delay` is the upper bound d_max — the
/// value every scheduler and timing analysis constrains against, so a
/// schedule is legal for *any* realization of the delays.  `delay_min`
/// is the lower bound d_min used by the optimistic side of the bounded
/// timing analysis (compute_timing_bounded).  The default is an exact interval
/// (delay_min == delay), which keeps every unit-delay code path
/// bit-identical to the pre-bounded behavior.
struct Node {
  OpKind kind = OpKind::kAdd;
  std::string name;   ///< human-readable label (unique per graph)
  int delay = 1;      ///< upper-bound latency d_max, in control steps
  int delay_min = 1;  ///< lower-bound latency d_min (<= delay)

  /// True when the delay interval is non-degenerate (d_min < d_max).
  [[nodiscard]] bool bounded_delay() const noexcept {
    return delay_min != delay;
  }
};

/// A directed edge between two nodes.
///
/// `tokens` is the marked-graph initial-token count (homogeneous SDF):
/// a value of 0 is an ordinary same-iteration precedence edge, a value
/// of k > 0 marks a loop-carried dependence whose consumer reads the
/// producer's value from k iterations earlier.  Under a periodic
/// schedule with initiation interval II the constraint becomes
/// start(dst) + k * II >= start(src) + delay(src).  Token-carrying
/// edges are the only edges allowed to close a cycle.
struct Edge {
  NodeId src;
  NodeId dst;
  EdgeKind kind = EdgeKind::kData;
  int tokens = 0;  ///< initial tokens (marked-graph back-edge iff > 0)

  /// True for a loop-carried (inter-iteration) dependence.
  [[nodiscard]] bool carried() const noexcept { return tokens > 0; }
};

/// Mutable CDFG.
///
/// Invariants (checked by validate.h):
///   * the precedence relation over live *token-free* edges is acyclic
///     (every cycle must pass through at least one edge with tokens > 0);
///   * node names are unique;
///   * source/sink pseudo-ops have no fan-in / fan-out respectively.
///
/// Fan-in edge lists preserve insertion order — the watermarking domain-
/// identification step depends on a deterministic, reproducible ordering
/// of each node's inputs.
///
/// Layout: every adjacency list lives in one flat EdgeId arena, and each
/// node holds one {offset, length, capacity} slot per direction.  A list
/// that outgrows its capacity moves to the arena's end with doubled
/// capacity (its old cells are abandoned, never reused); removal erases
/// in place.  Copying or destroying a graph is therefore a handful of
/// flat buffer copies or frees, not two heap blocks per node.
///
/// assign_edges() builds every list at once at its exact length, laid
/// out node by node; the first add_edge() to such a full list relocates
/// it to the arena's end like any other full list.
///
/// Span lifetime: any add_edge() may move the arena, so it invalidates
/// *every* fanin()/fanout() span, not only the touched nodes'.  A loop
/// that adds edges while walking a list must copy the list first.
/// remove_edge()/remove_node() leave spans pointing at valid memory but
/// shorten the touched lists, so a held span reads stale entries.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction -----------------------------------------------------

  /// Adds a node.  If `name` is empty a unique "<op><index>" label is
  /// generated.  If `delay` is negative the op's default latency is used.
  NodeId add_node(OpKind kind, std::string name = {}, int delay = -1);

  /// Adds a directed edge.  Both endpoints must be live; they must be
  /// distinct unless the edge carries tokens (a self-loop models an op
  /// that consumes its own previous-iteration result).  Duplicate
  /// parallel edges are allowed (commutative two-input ops may read the
  /// same value twice).  `tokens` must be non-negative.
  EdgeId add_edge(NodeId src, NodeId dst, EdgeKind kind = EdgeKind::kData,
                  int tokens = 0);

  /// Throws std::invalid_argument exactly when add_edge(src, dst, kind,
  /// tokens) would, with the same message — lets a parser blame
  /// the input that supplied a bad edge before calling assign_edges().
  void check_edge(NodeId src, NodeId dst, int tokens) const;

  /// Bulk add_edge() for a graph with no edges yet: the result equals
  /// one add_edge() per element in order (same EdgeIds, same
  /// insertion-ordered fan-in and fan-out lists), but each list is laid
  /// out once at its exact length.  Every edge passes check_edge()
  /// before the graph changes.  Throws std::logic_error if the graph
  /// has ever had an edge.
  void assign_edges(std::vector<Edge> edges);

  /// Presizes node storage for `nodes` add_node() calls in all.
  void reserve_nodes(std::size_t nodes);

  /// Tombstones an edge.  Handles to other edges remain valid.
  void remove_edge(EdgeId e);

  /// Tombstones a node and every edge incident to it.
  void remove_node(NodeId n);

  /// Renames a live node.  The new name must stay unique (checked by
  /// validate(), not here).  Detection never reads names — this exists
  /// so tests can model a renaming adversary and tools can relabel.
  void rename_node(NodeId n, std::string name);

  /// Sets a node's bounded delay interval [dmin, dmax].  Requires
  /// 0 <= dmin <= dmax; throws std::invalid_argument otherwise.  The
  /// upper bound dmax is what every scheduler constrains against (it
  /// replaces Node::delay); dmin feeds the optimistic timing analyses.
  void set_delay_bounds(NodeId n, int dmin, int dmax);

  /// True if any live node carries a non-degenerate delay interval
  /// (delay_min < delay).  O(node_capacity) scan — query once per graph
  /// and keep the answer, as the DesignStore does at load.
  [[nodiscard]] bool has_bounded_delays() const noexcept;

  /// True if any live edge carries initial tokens (tokens > 0) — i.e.
  /// the graph is a marked graph with loop-carried dependences and only
  /// periodic-capable schedulers may run on it unfiltered.  O(edge
  /// capacity) scan, same caching advice as has_bounded_delays().
  [[nodiscard]] bool has_token_edges() const noexcept;

  /// Removes every temporal edge — the post-synthesis "strip the
  /// watermark constraints from the optimized specification" step.
  /// Returns the number of edges removed.
  int strip_temporal_edges();

  // ---- queries ------------------------------------------------------------

  [[nodiscard]] bool is_live(NodeId n) const noexcept {
    return n.value < nodes_.size() && node_live_[n.value];
  }
  [[nodiscard]] bool is_live(EdgeId e) const noexcept {
    return e.value < edges_.size() && edge_live_[e.value];
  }

  /// Live node/edge counts (tombstoned entries excluded).
  [[nodiscard]] std::size_t node_count() const noexcept { return live_nodes_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return live_edges_; }

  /// Upper bound on NodeId::value + 1 (array-sizing helper).
  [[nodiscard]] std::size_t node_capacity() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_capacity() const noexcept { return edges_.size(); }

  /// Node/edge payloads.  Throws std::out_of_range on a dead handle.
  [[nodiscard]] const Node& node(NodeId n) const {
    check_live(n);
    return nodes_[n.value];
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const {
    check_live(e);
    return edges_[e.value];
  }

  /// Edges into / out of `n`, in insertion order; tombstoned edges are
  /// excluded (the lists are maintained eagerly on removal).  See the
  /// class comment for how long a span stays valid.
  [[nodiscard]] std::span<const EdgeId> fanin(NodeId n) const {
    check_live(n);
    return list(in_[n.value]);
  }
  [[nodiscard]] std::span<const EdgeId> fanout(NodeId n) const {
    check_live(n);
    return list(out_[n.value]);
  }

  /// All live node ids in ascending id order.
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// All live edge ids in ascending id order.
  [[nodiscard]] std::vector<EdgeId> edge_ids() const;

  /// Live edges of one kind.
  [[nodiscard]] std::vector<EdgeId> edges_of_kind(EdgeKind k) const;

  /// Allocation-free forward range over live ids in ascending order —
  /// the hot-path alternative to node_ids()/edge_ids(), which build a
  /// fresh vector per call.  The view walks the liveness bitmap lazily;
  /// it is invalidated by add_node()/add_edge() (reallocation), but
  /// tombstoning mid-iteration is safe (already-yielded ids stay valid).
  template <typename Id>
  class LiveIdRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Id;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const std::vector<bool>* live, std::uint32_t i) noexcept
          : live_(live), i_(i) {
        skip_dead();
      }
      Id operator*() const noexcept { return Id{i_}; }
      iterator& operator++() noexcept {
        ++i_;
        skip_dead();
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator tmp = *this;
        ++*this;
        return tmp;
      }
      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.i_ == b.i_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) noexcept {
        return a.i_ != b.i_;
      }

     private:
      void skip_dead() noexcept {
        while (i_ < live_->size() && !(*live_)[i_]) ++i_;
      }
      const std::vector<bool>* live_ = nullptr;
      std::uint32_t i_ = 0;
    };

    explicit LiveIdRange(const std::vector<bool>& live) noexcept
        : live_(&live) {}
    [[nodiscard]] iterator begin() const noexcept { return {live_, 0}; }
    [[nodiscard]] iterator end() const noexcept {
      return {live_, static_cast<std::uint32_t>(live_->size())};
    }

   private:
    const std::vector<bool>* live_;
  };

  /// Live edges of one kind, lazily filtered (no allocation).
  class EdgeKindRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = EdgeId;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const Graph* g, EdgeKind kind, std::uint32_t i) noexcept
          : g_(g), kind_(kind), i_(i) {
        skip_mismatch();
      }
      EdgeId operator*() const noexcept { return EdgeId{i_}; }
      iterator& operator++() noexcept {
        ++i_;
        skip_mismatch();
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator tmp = *this;
        ++*this;
        return tmp;
      }
      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.i_ == b.i_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) noexcept {
        return a.i_ != b.i_;
      }

     private:
      void skip_mismatch() noexcept {
        while (i_ < g_->edges_.size() &&
               (!g_->edge_live_[i_] || g_->edges_[i_].kind != kind_)) {
          ++i_;
        }
      }
      const Graph* g_ = nullptr;
      EdgeKind kind_ = EdgeKind::kData;
      std::uint32_t i_ = 0;
    };

    EdgeKindRange(const Graph* g, EdgeKind kind) noexcept
        : g_(g), kind_(kind) {}
    [[nodiscard]] iterator begin() const noexcept { return {g_, kind_, 0}; }
    [[nodiscard]] iterator end() const noexcept {
      return {g_, kind_, static_cast<std::uint32_t>(g_->edges_.size())};
    }

   private:
    const Graph* g_;
    EdgeKind kind_;
  };

  /// Live node ids, ascending, without the node_ids() allocation.
  [[nodiscard]] LiveIdRange<NodeId> nodes() const noexcept {
    return LiveIdRange<NodeId>(node_live_);
  }
  /// Live edge ids, ascending, without the edge_ids() allocation.
  [[nodiscard]] LiveIdRange<EdgeId> edges() const noexcept {
    return LiveIdRange<EdgeId>(edge_live_);
  }
  /// Live edges of one kind, without the edges_of_kind() allocation.
  [[nodiscard]] EdgeKindRange edges_of(EdgeKind k) const noexcept {
    return EdgeKindRange(this, k);
  }

  /// Looks a node up by its unique name; invalid NodeId if absent.
  [[nodiscard]] NodeId find(std::string_view name) const noexcept;

  /// Count of live executable nodes (the paper's "number of operations N";
  /// inputs/outputs/constants excluded).
  [[nodiscard]] std::size_t operation_count() const;

  /// True if an edge src->dst of the given kind is present (live).
  [[nodiscard]] bool has_edge(NodeId src, NodeId dst, EdgeKind kind) const;

 private:
  /// One node's adjacency list in one direction: arena_[off, off + len),
  /// with room up to off + cap.
  struct AdjSlot {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  void check_live(NodeId n) const {
    if (!is_live(n)) throw_dead(n);
  }
  void check_live(EdgeId e) const {
    if (!is_live(e)) throw_dead(e);
  }
  [[noreturn]] static void throw_dead(NodeId n);
  [[noreturn]] static void throw_dead(EdgeId e);

  [[nodiscard]] std::span<const EdgeId> list(AdjSlot s) const noexcept {
    return {arena_.data() + s.off, s.len};
  }
  void append(AdjSlot& s, EdgeId e);
  void erase(AdjSlot& s, EdgeId e) noexcept;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<bool> node_live_;
  std::vector<bool> edge_live_;
  std::vector<EdgeId> arena_;  ///< every adjacency list, see AdjSlot
  std::vector<AdjSlot> in_;    ///< fan-in slot, by NodeId::value
  std::vector<AdjSlot> out_;   ///< fan-out slot, by NodeId::value
  std::size_t live_nodes_ = 0;
  std::size_t live_edges_ = 0;
};

}  // namespace lwm::cdfg

template <>
struct std::hash<lwm::cdfg::NodeId> {
  std::size_t operator()(lwm::cdfg::NodeId n) const noexcept {
    return std::hash<std::uint32_t>{}(n.value);
  }
};

template <>
struct std::hash<lwm::cdfg::EdgeId> {
  std::size_t operator()(lwm::cdfg::EdgeId e) const noexcept {
    return std::hash<std::uint32_t>{}(e.value);
  }
};
