// scaling.h — wall-clock ratio pins for "linear in the input" claims.
#pragma once

#include <time.h>

#include <algorithm>

namespace lwm::scaling {

/// CPU seconds the calling thread spends in one call of `f`.  Thread CPU
/// time, not wall time: a pin run beside other tests must not read the
/// time it spent preempted.
template <typename F>
double seconds(F&& f) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  };
  const double t0 = now();
  f();
  return now() - t0;
}

/// Time ratio of `large` to `small`, each the minimum of three
/// interleaved runs.  Up to three attempts absorb cache and frequency
/// noise: the first ratio below `bound` is returned, else the last one.
/// A superlinear step never gets below the bound by luck.
template <typename Small, typename Large>
double ratio(Small&& small, Large&& large, double bound) {
  double r = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    double t_small = 1e300;
    double t_large = 1e300;
    for (int run = 0; run < 3; ++run) {
      t_small = std::min(t_small, seconds(small));
      t_large = std::min(t_large, seconds(large));
    }
    r = t_large / t_small;
    if (r < bound) break;
  }
  return r;
}

}  // namespace lwm::scaling
