#include "cdfg/name_index.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace lwm::cdfg {

namespace {

std::uint32_t hash_name(std::string_view name) noexcept {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

}  // namespace

NameIndex::NameIndex(const Graph& g) {
  reserve(g.node_count());
  for (const NodeId n : g.nodes()) insert(g, n);
}

void NameIndex::reserve(std::size_t names) {
  const std::size_t slots = std::bit_ceil(2 * names + 1);
  if (slots > slots_.size()) rehash(slots);
}

std::size_t NameIndex::probe(const Graph& g, std::string_view name,
                             std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.id.valid() || (s.hash == hash && g.node(s.id).name == name)) {
      return i;
    }
  }
}

NodeId NameIndex::find(const Graph& g, std::string_view name) const {
  if (slots_.empty()) return NodeId{};
  return slots_[probe(g, name, hash_name(name))].id;
}

bool NameIndex::insert(const Graph& g, NodeId n) {
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::string& name = g.node(n).name;
  const std::uint32_t hash = hash_name(name);
  Slot& s = slots_[probe(g, name, hash)];
  if (s.id.valid()) return false;
  s = Slot{hash, n};
  ++size_;
  return true;
}

void NameIndex::rehash(std::size_t slots) {
  std::vector<Slot> old(slots);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.id.valid()) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].id.valid()) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace lwm::cdfg
