// forged_schedule_id.h — the schedule id a hostile client would send to
// alias another design's resident schedule.
//
// DesignStore keys a schedule by key(d, s) = d ^ (s·K + C) with K odd,
// so s ↦ s·K is a bijection mod 2^64 and, given a resident pair
// (design_a, sched_a), every other design id has exactly one schedule
// id that lands on the same key.  The constants mirror
// DesignStore::schedule_key.
#pragma once

#include <cstdint>

namespace lwm::serve::test_support {

inline std::uint64_t forged_schedule_id(std::uint64_t design_a,
                                        std::uint64_t sched_a,
                                        std::uint64_t design_b) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  constexpr std::uint64_t kAdd = 0x632BE59BD9B4E019ull;
  // Newton's iteration doubles the correct low bits of K^-1 each step.
  std::uint64_t inv = kMul;
  for (int i = 0; i < 6; ++i) inv *= 2 - kMul * inv;
  const std::uint64_t key = design_a ^ (sched_a * kMul + kAdd);
  return ((key ^ design_b) - kAdd) * inv;
}

}  // namespace lwm::serve::test_support
