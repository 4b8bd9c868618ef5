// fds_kernels.h — the force-directed refill inner loops as standalone,
// dispatchable kernels.
//
// One refill computes the total force of placing a node n at every step
// t of its window [lo, hi]: the self term over n's own distribution-
// graph row plus one clipped term per unpinned neighbor (fan-in edges
// clip the neighbor's window tail to t - delay_m, fan-out edges clip its
// head to t + delay_n).  The loops are pure multiply-add streams over
// the DG rows, which makes them the FDS hot spot — and SIMD-friendly.
//
// Bit-identity contract: every kernel must reproduce, for each t, the
// exact floating-point sum the reference engine computes — the same
// products added in the same (s ascending, then d ascending) order, with
// self term first and neighbor terms in hot[] order, each neighbor
// accumulated into an independently-zeroed partial exactly like the
// reference's clipped_force locals.  The AVX2 kernel satisfies this by
// vectorizing *across t*: four t-lanes advance through the identical
// scalar operation sequence simultaneously, with the per-element
// in-range branches turned into lane blends (or hoisted to segment
// bounds where every lane agrees).  No FMA contraction is allowed (the
// kernel TUs build with -ffp-contract=off), so scalar and SIMD paths
// produce bit-equal forces and therefore identical schedules.
//
// Probabilities come from a caller-provided reciprocal table:
// inv_len[k] must hold 1.0 / k for every window length k that can occur
// (1 <= k <= latency + 1).  1.0 / k is a pure function of k, so the
// table lookup returns the identical double the reference's division
// produces — it just removes several million vdivpd from the hot path.
//
// Window invariants the kernels rely on (guaranteed by TimingCache):
// every window satisfies 0 <= lo and hi + delay <= latency, so the
// reference's clip max(0, mlo) is mlo and min(latency, mhi) is mhi —
// fan-in edges only ever move a neighbor's right bound and fan-out
// edges only its left bound.
#pragma once

#include <cstddef>

namespace lwm::sched::fds {

/// One unpinned neighbor's state, hoisted once per refill.
struct HotNb {
  const double* row;  ///< neighbor's unit-class DG row
  int mlo = 0;        ///< neighbor window at refill time
  int mhi = 0;
  int delay = 1;
  double p_old = 0.0;  ///< 1 / (mhi - mlo + 1)
  bool pred = false;   ///< fan-in edge: clip tail; fan-out edge: clip head
};

/// Fills out[t - lo] for every t in [lo, hi] with the total force of
/// placing the node (own DG row `srow`, delay `delay`) at step t.
/// `inv_len[k]` must hold 1.0 / k for 1 <= k <= latency + 1.
using RefillFn = void (*)(const double* srow, int lo, int hi, int delay,
                          int latency, const double* inv_len,
                          const HotNb* hot, std::size_t nhot, double* out);

/// Portable kernel — always built, the oracle for the SIMD path.
void refill_force_scalar(const double* srow, int lo, int hi, int delay,
                         int latency, const double* inv_len, const HotNb* hot,
                         std::size_t nhot, double* out);

#if defined(LWM_SIMD_AVX2)
/// 4-lane AVX2 kernel (built only under LWM_SIMD on capable compilers;
/// call only after a cpuid check — select_refill_fn does both).
void refill_force_avx2(const double* srow, int lo, int hi, int delay,
                       int latency, const double* inv_len, const HotNb* hot,
                       std::size_t nhot, double* out);
#endif

#if defined(LWM_SIMD_AVX512)
/// 8-lane AVX-512 kernel (needs avx512f + avx512dq at run time).
void refill_force_avx512(const double* srow, int lo, int hi, int delay,
                         int latency, const double* inv_len, const HotNb* hot,
                         std::size_t nhot, double* out);
#endif

/// Best kernel for this build and CPU: AVX-512 when compiled in and
/// supported by the running machine; else AVX2 likewise; else scalar.
[[nodiscard]] RefillFn select_refill_fn() noexcept;

/// True when any SIMD kernel is compiled in and this CPU supports it.
[[nodiscard]] bool simd_available() noexcept;

}  // namespace lwm::sched::fds
