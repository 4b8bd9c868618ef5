// bitstream.h — author-keyed pseudorandom bitstream.
//
// Every pseudorandom choice in the watermarking protocols (which inputs
// to include while carving the locality subtree, which K nodes form T'',
// which overlap partner receives a temporal edge, which matching is
// enforced) is drawn from this stream, so embedding and detection — run
// with the same signature — make byte-identical decisions.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/rc4.h"

namespace lwm::crypto {

class Bitstream {
 public:
  /// Wraps an RC4 keystream (already keyed).  Per the paper, the stream
  /// is produced by iteratively encrypting a standard seed with the keyed
  /// cipher; XOR with a constant seed preserves RC4's one-wayness, so we
  /// consume the keystream directly and drop the first 256 bytes
  /// (RC4-drop-N) to decouple the stream from key-schedule biases.
  explicit Bitstream(Rc4 cipher);

  /// Next pseudorandom bit.
  bool next_bit();

  /// Uniform integer in [0, bound) via rejection sampling — no modulo
  /// bias, so detection probabilities match the analysis exactly.
  /// Precondition: bound > 0.
  std::uint32_t next_uint(std::uint32_t bound);

  /// Bernoulli trial with probability numer/denom (exact rational, again
  /// bias-free).  Preconditions: denom > 0, numer <= denom.
  bool bernoulli(std::uint32_t numer, std::uint32_t denom);

  /// Selects an *ordered* sample of k distinct indices from [0, n)
  /// (Fisher–Yates on an index vector, consuming next_uint).  This is the
  /// protocol's "pseudo-randomly select an ordered selection T'' of K
  /// nodes".  Precondition: k <= n.
  std::vector<std::uint32_t> ordered_sample(std::uint32_t n, std::uint32_t k);

 private:
  std::uint8_t next_byte();

  Rc4 cipher_;
  std::uint8_t buffer_ = 0;
  int bits_left_ = 0;
};

}  // namespace lwm::crypto
