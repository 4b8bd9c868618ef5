// name_index.h — node-name lookup for the text parsers.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"

namespace lwm::cdfg {

/// Open-addressed map from node name to NodeId that owns no key: a slot
/// holds a NodeId and its name's hash, and a probe compares against the
/// graph's own Node::name.  Lookups take a string_view, so a parse builds
/// no per-line std::string.  parse_cdfg fills one as it adds nodes;
/// parse_schedule builds one over a finished graph.  Every call must pass
/// the graph the indexed nodes belong to, and they must stay live.
class NameIndex {
 public:
  NameIndex() = default;

  /// Indexes every live node of `g`.  The first live node wins a
  /// duplicated name, as in Graph::find.
  explicit NameIndex(const Graph& g);

  /// The node indexed under `name`, or an invalid NodeId.
  [[nodiscard]] NodeId find(const Graph& g, std::string_view name) const;

  /// Presizes for `names` entries in all, so inserting them never
  /// rehashes.
  void reserve(std::size_t names);

  /// Indexes `n` under its name.  Returns false, leaving the index
  /// unchanged, when another node already holds that name.
  bool insert(const Graph& g, NodeId n);

 private:
  struct Slot {
    std::uint32_t hash = 0;
    NodeId id;  ///< invalid: empty slot
  };

  /// The slot holding `name`, or the empty slot that ends its probe.
  [[nodiscard]] std::size_t probe(const Graph& g, std::string_view name,
                                  std::uint32_t hash) const;
  void rehash(std::size_t slots);

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::size_t size_ = 0;
};

}  // namespace lwm::cdfg
