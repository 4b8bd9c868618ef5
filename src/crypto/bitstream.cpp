#include "crypto/bitstream.h"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace lwm::crypto {

Bitstream::Bitstream(Rc4 cipher) : cipher_(std::move(cipher)) {
  cipher_.skip(256);
}

std::uint8_t Bitstream::next_byte() { return cipher_.next_byte(); }

bool Bitstream::next_bit() {
  if (bits_left_ == 0) {
    buffer_ = next_byte();
    bits_left_ = 8;
  }
  const bool bit = (buffer_ & 1u) != 0;
  buffer_ >>= 1;
  --bits_left_;
  return bit;
}

std::uint32_t Bitstream::next_uint(std::uint32_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("Bitstream::next_uint: bound must be > 0");
  }
  if (bound == 1) return 0;
  // Rejection sampling over the smallest power-of-two envelope.
  int bits = 0;
  while ((1ull << bits) < bound) ++bits;
  for (;;) {
    std::uint32_t v = 0;
    for (int k = 0; k < bits; ++k) {
      v = (v << 1) | (next_bit() ? 1u : 0u);
    }
    if (v < bound) return v;
  }
}

bool Bitstream::bernoulli(std::uint32_t numer, std::uint32_t denom) {
  if (denom == 0 || numer > denom) {
    throw std::invalid_argument("Bitstream::bernoulli: need 0 <= numer/denom <= 1");
  }
  return next_uint(denom) < numer;
}

std::vector<std::uint32_t> Bitstream::ordered_sample(std::uint32_t n,
                                                     std::uint32_t k) {
  if (k > n) {
    throw std::invalid_argument("Bitstream::ordered_sample: k > n");
  }
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint32_t j = i + next_uint(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace lwm::crypto
