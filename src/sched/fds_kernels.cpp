// Scalar refill kernel + dispatch.  Built with -ffp-contract=off so the
// accumulation is plain mul/add even under exotic flag combinations —
// the bit-identity contract in fds_kernels.h depends on it.
#include "sched/fds_kernels.h"

namespace lwm::sched::fds {

void refill_force_scalar(const double* srow, int lo, int hi, int delay,
                         int latency, const double* inv_len, const HotNb* hot,
                         std::size_t nhot, double* out) {
  const double p_old = inv_len[hi - lo + 1];
  const double d_at = 1.0 - p_old;   // delta at s == t
  const double d_off = 0.0 - p_old;  // delta elsewhere
  for (int t = lo; t <= hi; ++t) {
    double force = 0.0;
    // Self term: segment-split around s == t when the delay-1 fast path
    // applies; the branchy general loop otherwise.  Both walk s in the
    // same ascending order and add the same products.
    if (delay == 1) {
      for (int s = lo; s < t; ++s) force += srow[s] * d_off;
      force += srow[t] * d_at;
      for (int s = t + 1; s <= hi; ++s) force += srow[s] * d_off;
    } else {
      for (int s = lo; s <= hi; ++s) {
        const double delta = (s == t) ? d_at : d_off;
        for (int d = 0; d < delay; ++d) {
          force += srow[static_cast<std::size_t>(s + d)] * delta;
        }
      }
    }
    for (std::size_t i = 0; i < nhot; ++i) {
      const HotNb& h = hot[i];
      // The window invariants (0 <= mlo, mhi <= latency) reduce the
      // reference's max(0, mlo) / min(latency, mhi) clips to the bounds
      // themselves: a fan-in edge only moves the right bound, a fan-out
      // edge only the left one.
      const int new_lo = h.pred ? h.mlo : (t + delay > h.mlo ? t + delay : h.mlo);
      const int new_hi = h.pred ? (t - h.delay < h.mhi ? t - h.delay : h.mhi)
                                : h.mhi;
      if (new_lo > new_hi) {
        force += 1e9;  // infeasible neighbor placement
        continue;
      }
      const double q_in = inv_len[new_hi - new_lo + 1] - h.p_old;
      const double q_out = 0.0 - h.p_old;
      double f = 0.0;
      if (h.delay == 1) {
        for (int s = h.mlo; s < new_lo; ++s) f += h.row[s] * q_out;
        for (int s = new_lo; s <= new_hi; ++s) f += h.row[s] * q_in;
        for (int s = new_hi + 1; s <= h.mhi; ++s) f += h.row[s] * q_out;
      } else {
        for (int s = h.mlo; s <= h.mhi; ++s) {
          const double q = (s >= new_lo && s <= new_hi) ? q_in : q_out;
          for (int d = 0; d < h.delay; ++d) {
            f += h.row[static_cast<std::size_t>(s + d)] * q;
          }
        }
      }
      force += f;
    }
    out[static_cast<std::size_t>(t - lo)] = force;
  }
  (void)latency;
}

namespace {

bool have_avx512() noexcept {
#if defined(LWM_SIMD_AVX512)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

bool have_avx2() noexcept {
#if defined(LWM_SIMD_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

RefillFn select_refill_fn() noexcept {
#if defined(LWM_SIMD_AVX512)
  if (have_avx512()) return refill_force_avx512;
#endif
#if defined(LWM_SIMD_AVX2)
  if (have_avx2()) return refill_force_avx2;
#endif
  return refill_force_scalar;
}

bool simd_available() noexcept { return have_avx512() || have_avx2(); }

}  // namespace lwm::sched::fds
