#include "crypto/bitstream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string_view>

namespace lwm::crypto {
namespace {

Bitstream make(std::string_view key) {
  std::vector<std::uint8_t> k(key.begin(), key.end());
  return Bitstream(Rc4(k));
}

TEST(BitstreamTest, DeterministicPerKey) {
  Bitstream a = make("alpha");
  Bitstream b = make("alpha");
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(a.next_bit(), b.next_bit()) << "bit " << i;
  }
}

TEST(BitstreamTest, KeysDecorrelate) {
  Bitstream a = make("alpha");
  Bitstream b = make("beta");
  int agreements = 0;
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    if (a.next_bit() == b.next_bit()) ++agreements;
  }
  // Two independent fair streams agree ~50% of the time.
  EXPECT_GT(agreements, n / 2 - 200);
  EXPECT_LT(agreements, n / 2 + 200);
}

TEST(BitstreamTest, BitsRoughlyBalanced) {
  Bitstream s = make("balance");
  int ones = 0;
  const int n = 8192;
  for (int i = 0; i < n; ++i) {
    if (s.next_bit()) ++ones;
  }
  EXPECT_GT(ones, n / 2 - 300);
  EXPECT_LT(ones, n / 2 + 300);
}

TEST(BitstreamTest, NextUintInBounds) {
  Bitstream s = make("bounds");
  for (const std::uint32_t bound : {1u, 2u, 3u, 7u, 10u, 100u, 1000u}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LT(s.next_uint(bound), bound);
    }
  }
  EXPECT_THROW(s.next_uint(0), std::invalid_argument);
}

TEST(BitstreamTest, NextUintIsUnbiased) {
  // Rejection sampling over bound 3: each value ~1/3.
  Bitstream s = make("uniform");
  std::array<int, 3> counts{};
  const int n = 9000;
  for (int i = 0; i < n; ++i) ++counts[s.next_uint(3)];
  for (const int c : counts) {
    EXPECT_GT(c, n / 3 - 300);
    EXPECT_LT(c, n / 3 + 300);
  }
}

TEST(BitstreamTest, BernoulliExactRational) {
  Bitstream s = make("bern");
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (s.bernoulli(1, 4)) ++hits;
  }
  EXPECT_GT(hits, n / 4 - 300);
  EXPECT_LT(hits, n / 4 + 300);
  EXPECT_THROW(s.bernoulli(5, 4), std::invalid_argument);
  EXPECT_THROW(s.bernoulli(1, 0), std::invalid_argument);
  // Degenerate rates are exact.
  EXPECT_FALSE(s.bernoulli(0, 7));
  EXPECT_TRUE(s.bernoulli(7, 7));
}

TEST(BitstreamTest, OrderedSampleDistinctAndComplete) {
  Bitstream s = make("sample");
  const auto sample = s.ordered_sample(10, 10);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 9u);
}

TEST(BitstreamTest, OrderedSamplePrefixProperty) {
  // Fisher–Yates: the first k elements drawn with the same stream match.
  Bitstream a = make("prefix");
  Bitstream b = make("prefix");
  const auto full = a.ordered_sample(20, 20);
  const auto part = b.ordered_sample(20, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(part[static_cast<std::size_t>(i)], full[static_cast<std::size_t>(i)]);
  }
}

TEST(BitstreamTest, OrderedSampleValidation) {
  Bitstream s = make("check");
  EXPECT_THROW(s.ordered_sample(3, 4), std::invalid_argument);
  EXPECT_TRUE(s.ordered_sample(3, 0).empty());
}

TEST(BitstreamTest, BitsConsumedMonotonic) {
  // A twin stream advanced bit by bit counts what `s` consumed: after one
  // bit and next_uint(8), which takes exactly 3 bits for a power-of-two
  // bound (MSB first), the two streams read on in lockstep.
  Bitstream s = make("count");
  Bitstream twin = make("count");
  EXPECT_EQ(s.next_bit(), twin.next_bit());
  std::uint32_t v = 0;
  for (int k = 0; k < 3; ++k) v = (v << 1) | (twin.next_bit() ? 1u : 0u);
  EXPECT_EQ(s.next_uint(8), v);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(s.next_bit(), twin.next_bit()) << "bit " << i;
  }
}

}  // namespace
}  // namespace lwm::crypto
