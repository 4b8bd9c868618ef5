// The FDS refill kernel contract (fds_kernels.h): the kernel
// select_refill_fn() dispatches to must reproduce refill_force_scalar
// bit for bit on any input that satisfies the window invariants — delay
// 1 and delay > 1, fan-in and fan-out neighbours, feasible and
// infeasible clipped windows alike.
#include "sched/fds_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

namespace lwm::sched::fds {
namespace {

/// A random refill problem: a node window [lo, hi] with `delay`, DG rows
/// of `latency` steps, and neighbours whose windows keep
/// 0 <= mlo <= mhi and mhi + delay <= latency.
struct Problem {
  int latency = 0;
  int lo = 0;
  int hi = 0;
  int delay = 1;
  std::vector<double> srow;
  std::vector<std::vector<double>> rows;  ///< one per neighbour
  std::vector<HotNb> hot;
  std::vector<double> inv_len;
};

Problem random_problem(std::mt19937_64& rng, int node_delay) {
  const auto uniform = [&](int a, int b) {
    return std::uniform_int_distribution<int>(a, b)(rng);
  };
  std::uniform_real_distribution<double> density(0.0, 3.0);
  Problem p;
  p.latency = uniform(node_delay + 1, 40);
  p.delay = node_delay;
  p.lo = uniform(0, p.latency - p.delay);
  p.hi = uniform(p.lo, p.latency - p.delay);
  p.inv_len.assign(static_cast<std::size_t>(p.latency) + 2, 0.0);
  for (std::size_t k = 1; k < p.inv_len.size(); ++k) {
    p.inv_len[k] = 1.0 / static_cast<double>(k);
  }
  const auto row = [&] {
    std::vector<double> r(static_cast<std::size_t>(p.latency));
    for (double& x : r) x = density(rng);
    return r;
  };
  p.srow = row();
  const int nhot = uniform(0, 6);
  for (int i = 0; i < nhot; ++i) p.rows.push_back(row());
  for (int i = 0; i < nhot; ++i) {
    HotNb h;
    h.row = p.rows[static_cast<std::size_t>(i)].data();
    h.delay = uniform(1, 3) == 1 ? uniform(2, 4) : 1;
    if (h.delay > p.latency) h.delay = 1;
    h.mlo = uniform(0, p.latency - h.delay);
    h.mhi = uniform(h.mlo, p.latency - h.delay);
    h.p_old = p.inv_len[static_cast<std::size_t>(h.mhi - h.mlo + 1)];
    h.pred = uniform(0, 1) == 1;
    p.hot.push_back(h);
  }
  return p;
}

std::vector<double> run(RefillFn fn, const Problem& p) {
  std::vector<double> out(static_cast<std::size_t>(p.hi - p.lo + 1), -1.0);
  fn(p.srow.data(), p.lo, p.hi, p.delay, p.latency, p.inv_len.data(),
     p.hot.data(), p.hot.size(), out.data());
  return out;
}

TEST(FdsKernelsTest, DispatchedKernelMatchesScalarBitForBit) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel on this build/CPU";
  const RefillFn kernel = select_refill_fn();
  ASSERT_NE(kernel, &refill_force_scalar);
  std::mt19937_64 rng(20000605);
  int infeasible = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Problem p = random_problem(rng, trial % 2 == 0 ? 1 : 2 + trial % 3);
    const std::vector<double> want = run(&refill_force_scalar, p);
    const std::vector<double> got = run(kernel, p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "trial " << trial << " t=" << p.lo + static_cast<int>(i)
          << " delay=" << p.delay << " nhot=" << p.hot.size() << ": "
          << got[i] << " vs " << want[i];
      if (want[i] > 5e8) ++infeasible;
    }
  }
  // The infeasible-neighbour blend is part of the contract too.
  EXPECT_GT(infeasible, 0);
}

}  // namespace
}  // namespace lwm::sched::fds
